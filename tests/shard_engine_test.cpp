// shard_engine_test.cpp — conservative-window parallel data plane
// (hsn::ShardEngine): domain partitioning, lookahead derivation, window
// accounting, and — the reason the barrier observer exists — coherent
// multi-field counter snapshots while worker threads are live.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <tuple>
#include <vector>

#include "hsn/fabric.hpp"
#include "hsn/shard_engine.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace shs::hsn {
namespace {

constexpr Vni kVni = 42;

TimingConfig flat_timing() {
  TimingConfig t;
  t.jitter_amplitude = 0.0;
  t.run_bias_amplitude = 0.0;
  return t;
}

std::vector<EndpointId> open_endpoints(Fabric& f, std::size_t nodes) {
  std::vector<EndpointId> eps;
  eps.reserve(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    const auto addr = static_cast<NicAddr>(i);
    EXPECT_TRUE(f.switch_for(addr)->authorize_vni(addr, kVni).is_ok());
    eps.push_back(
        f.nic(addr).alloc_endpoint(kVni, TrafficClass::kBulkData).value());
  }
  return eps;
}

void post_all_pairs(ShardEngine& engine, const std::vector<EndpointId>& eps,
                    std::size_t nodes, int rounds) {
  const std::size_t half = nodes / 2;
  for (int k = 0; k < rounds; ++k) {
    for (std::size_t s = 0; s < half; ++s) {
      const auto dst = static_cast<NicAddr>(half + s);
      ASSERT_TRUE(engine
                      .post_send(static_cast<NicAddr>(s), eps[s], dst,
                                 eps[dst], static_cast<std::uint64_t>(k),
                                 16 * 1024, 0)
                      .is_ok());
    }
  }
}

TEST(ShardEngine, SingleSwitchCollapsesToOneInlineDomain) {
  TopologyConfig topo;  // kSingleSwitch
  auto f = Fabric::create(8, flat_timing(), 0x51, topo);
  ShardEngine engine(*f, 4);
  // One domain => nothing to overlap; the pool is never spawned and
  // every window runs inline on the driver thread.
  EXPECT_EQ(engine.domain_count(), 1u);
  EXPECT_EQ(engine.lookahead(), 0);  // no cross-domain link => unbounded

  const auto eps = open_endpoints(*f, 8);
  post_all_pairs(engine, eps, 8, 4);
  engine.flush();
  EXPECT_EQ(engine.in_flight(), 0u);
  EXPECT_EQ(f->total_counters().delivered, 4u * 4u);
  EXPECT_EQ(f->total_counters().dropped_total(), 0u);
  EXPECT_EQ(engine.attempts_injected(), 4u * 4u);
  // Unbounded window: the whole flush is a single barrier.
  EXPECT_EQ(engine.windows_run(), 1u);
}

TEST(ShardEngine, DragonflyPartitionsPerGroupWithPositiveLookahead) {
  TopologyConfig topo;
  topo.kind = TopologyKind::kDragonfly;
  topo.nodes_per_switch = 4;
  topo.switches_per_group = 4;
  auto f = Fabric::create(64, flat_timing(), 0x52, topo);
  ShardEngine engine(*f, 4);
  // 16 switches / 4 per group => 4 sequential domains.
  EXPECT_EQ(engine.domain_count(), 4u);
  EXPECT_EQ(engine.threads(), 4);
  EXPECT_GT(engine.lookahead(), 0);

  const auto eps = open_endpoints(*f, 64);
  post_all_pairs(engine, eps, 64, 8);
  engine.flush();
  EXPECT_EQ(engine.in_flight(), 0u);
  EXPECT_EQ(f->total_counters().delivered, 32u * 8u);
  EXPECT_EQ(f->total_counters().dropped_total(), 0u);
  // Bounded lookahead forces the flush through many conservative
  // windows, each one a real barrier.
  EXPECT_GT(engine.windows_run(), 4u);
}

TEST(ShardEngine, FlushWithNothingStagedIsANoOp) {
  TopologyConfig topo;
  topo.kind = TopologyKind::kDragonfly;
  topo.nodes_per_switch = 4;
  topo.switches_per_group = 4;
  auto f = Fabric::create(64, flat_timing(), 0x53, topo);
  ShardEngine engine(*f, 2);
  engine.flush();
  EXPECT_EQ(engine.windows_run(), 0u);
  EXPECT_EQ(engine.attempts_injected(), 0u);
}

TEST(ShardEngine, PostSendValidatesEndpointLikeTheNic) {
  TopologyConfig topo;
  auto f = Fabric::create(4, flat_timing(), 0x54, topo);
  const auto eps = open_endpoints(*f, 4);
  ShardEngine engine(*f, 1);
  // Bogus source endpoint is rejected at staging time, not at flush.
  EXPECT_FALSE(
      engine.post_send(0, static_cast<EndpointId>(9999), 1, eps[1], 7, 64, 0)
          .is_ok());
  EXPECT_EQ(engine.attempts_injected(), 0u);
}

// The tentpole satellite: counters are snapshotted only at window
// barriers, where the workers are quiescent — so a multi-field read
// (injected vs delivered vs per-reason drops) can never observe a torn
// in-between state.  This runs with 4 live worker threads, a lossy
// fault profile AND the retransmit protocol armed, and asserts the
// cross-field conservation law at every single barrier:
//
//   attempts_injected == delivered + dropped_total + in_flight
//
// (ACK-lost attempts count as delivered at the switch; each retransmit
// is a fresh counted attempt.)  At flush exit in_flight is zero and the
// law collapses to injected == delivered + sum-of-drop-reasons.
TEST(ShardEngine, CounterInvariantHoldsAtEveryBarrierWithWorkersLive) {
  TopologyConfig topo;
  topo.kind = TopologyKind::kDragonfly;
  topo.nodes_per_switch = 4;
  topo.switches_per_group = 4;
  topo.routing = RoutingPolicy::kUgal;
  auto f = Fabric::create(64, flat_timing(), 0x55, topo);

  FaultProfile lossy;
  lossy.drop_rate = 0.03;
  lossy.ack_loss_rate = 0.01;
  f->set_fault_profile(lossy);
  ReliabilityConfig rel;
  rel.enabled = true;
  f->set_reliability(rel);

  ShardEngine engine(*f, 4);
  ASSERT_EQ(engine.domain_count(), 4u);

  std::uint64_t barriers_checked = 0;
  engine.set_barrier_observer([&] {
    const auto totals = f->total_counters();
    ASSERT_EQ(engine.attempts_injected(),
              totals.delivered + totals.dropped_total() + engine.in_flight())
        << "torn snapshot at barrier " << barriers_checked;
    ++barriers_checked;
  });

  const auto eps = open_endpoints(*f, 64);
  post_all_pairs(engine, eps, 64, 12);
  engine.flush();

  EXPECT_EQ(barriers_checked, engine.windows_run());
  EXPECT_GT(barriers_checked, 4u);
  EXPECT_EQ(engine.in_flight(), 0u);
  const auto totals = f->total_counters();
  EXPECT_EQ(engine.attempts_injected(),
            totals.delivered + totals.dropped_total());
  // The episode actually exercised the loss + retransmit machinery.
  EXPECT_GT(f->reliability_totals().retransmits, 0u);
  EXPECT_GT(engine.attempts_injected(), 32u * 12u);
}

// Retransmits spawned by one flush may outlive the posts that caused
// them; flush() must not return while any attempt is still in flight.
TEST(ShardEngine, FlushDrainsRetransmitsBeforeReturning) {
  TopologyConfig topo;
  topo.kind = TopologyKind::kDragonfly;
  topo.nodes_per_switch = 4;
  topo.switches_per_group = 4;
  auto f = Fabric::create(64, flat_timing(), 0x56, topo);
  FaultProfile lossy;
  lossy.drop_rate = 0.05;
  f->set_fault_profile(lossy);
  ReliabilityConfig rel;
  rel.enabled = true;
  f->set_reliability(rel);

  ShardEngine engine(*f, 2);
  const auto eps = open_endpoints(*f, 64);
  for (int burst = 0; burst < 3; ++burst) {
    post_all_pairs(engine, eps, 64, 4);
    engine.flush();
    EXPECT_EQ(engine.in_flight(), 0u);
    const auto totals = f->total_counters();
    EXPECT_EQ(engine.attempts_injected(),
              totals.delivered + totals.dropped_total());
  }
  EXPECT_GT(f->reliability_totals().retransmits, 0u);
}

// A chaos burst grows the pooled staging (item pools, run-queue refs,
// outboxes, notice queues) to the burst's high-water mark; the
// post-flush trim must hand that memory back once smaller flushes prove
// it dead, instead of pinning O(burst) capacity for the engine's
// remaining lifetime.
TEST(ShardEngine, LossyBurstDoesNotPinStagingMemory) {
  TopologyConfig topo;
  topo.kind = TopologyKind::kDragonfly;
  topo.nodes_per_switch = 4;
  topo.switches_per_group = 4;
  topo.routing = RoutingPolicy::kUgal;
  auto f = Fabric::create(64, flat_timing(), 0x57, topo);
  FaultProfile lossy;
  lossy.drop_rate = 0.05;
  lossy.ack_loss_rate = 0.02;
  f->set_fault_profile(lossy);
  ReliabilityConfig rel;
  rel.enabled = true;
  f->set_reliability(rel);

  ShardEngine engine(*f, 2);
  const auto eps = open_endpoints(*f, 64);

  // Burst: a deep backlog staged in one go, flushed under armed loss so
  // retransmits and notices grow every staging container at once.
  post_all_pairs(engine, eps, 64, 64);
  engine.flush();
  EXPECT_EQ(engine.in_flight(), 0u);
  const std::size_t burst_bytes = engine.staging_bytes_reserved();
  ASSERT_GT(burst_bytes, 0u);

  // Steady state: small flushes.  The HWM trim needs one flush to
  // observe the smaller mark and later ones to release above it.
  for (int i = 0; i < 8; ++i) {
    post_all_pairs(engine, eps, 64, 1);
    engine.flush();
    EXPECT_EQ(engine.in_flight(), 0u);
  }
  const std::size_t steady_bytes = engine.staging_bytes_reserved();
  EXPECT_GT(engine.stats().staging_trims, 0u);
  // The burst backlog was 64x the steady-state flush; anything within
  // 2x of the burst capacity means the trim failed to release it.
  EXPECT_LT(steady_bytes, burst_bytes / 2);
}

// -- Executor equivalence. --------------------------------------------------
//
// The synchronous walk (NIC verbs -> Fabric::inject -> RosettaSwitch::route)
// and the engine (post_* -> flush) share one TX builder and one switch
// step.  Run the same seeded op stream through both, one op at a time,
// and everything a tenant or an operator can observe must match exactly:
// received packets, completion events (NACKs included), memory, and the
// switches' counters.

constexpr Vni kRogueVni = 43;
constexpr std::size_t kMrBytes = 4096;

/// One fabric with a tenant endpoint and MR per node, plus a rogue
/// endpoint per node on another VNI that both ports are authorized for
/// — so its reads of the tenant's MRs cross the switch and are NACKed by
/// the target NIC.
struct EquivalenceRig {
  std::unique_ptr<Fabric> f;
  std::vector<EndpointId> eps;
  std::vector<EndpointId> rogue;
  std::vector<std::vector<std::byte>> mem;
  std::vector<RKey> rkeys;

  EquivalenceRig(std::size_t nodes, const TopologyConfig& topo)
      : f(Fabric::create(nodes, flat_timing(), 0x5eed, topo)), mem(nodes) {
    for (std::size_t i = 0; i < nodes; ++i) {
      const auto addr = static_cast<NicAddr>(i);
      EXPECT_TRUE(f->switch_for(addr)->authorize_vni(addr, kVni).is_ok());
      EXPECT_TRUE(
          f->switch_for(addr)->authorize_vni(addr, kRogueVni).is_ok());
      eps.push_back(
          f->nic(addr).alloc_endpoint(kVni, TrafficClass::kBulkData).value());
      rogue.push_back(f->nic(addr)
                          .alloc_endpoint(kRogueVni, TrafficClass::kBulkData)
                          .value());
      mem[i].resize(kMrBytes);
      for (std::size_t b = 0; b < kMrBytes; ++b) {
        mem[i][b] = static_cast<std::byte>(i * 31 + b);
      }
      rkeys.push_back(f->nic(addr).register_mr(eps[i], mem[i]).value());
    }
  }
};

struct EqOp {
  enum class Kind { kSend, kWrite, kRead, kForeignRead };
  Kind kind = Kind::kSend;
  NicAddr src = 0;
  NicAddr dst = 0;
  std::uint64_t size = 0;
  std::uint64_t offset = 0;
  SimTime vt = 0;
  std::uint64_t op_id = 0;
  std::vector<std::byte> payload;
};

std::vector<EqOp> seeded_ops(std::size_t nodes, int count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<EqOp> ops(static_cast<std::size_t>(count));
  SimTime vt = 0;
  for (int i = 0; i < count; ++i) {
    EqOp& op = ops[static_cast<std::size_t>(i)];
    // 4 : 2 : 2 : 1 sends, writes, reads, foreign-VNI reads.
    const std::uint64_t k = rng.uniform_u64(9);
    op.kind = k < 4   ? EqOp::Kind::kSend
              : k < 6 ? EqOp::Kind::kWrite
              : k < 8 ? EqOp::Kind::kRead
                      : EqOp::Kind::kForeignRead;
    op.src = static_cast<NicAddr>(rng.uniform_u64(nodes));
    op.dst = static_cast<NicAddr>(rng.uniform_u64(nodes));
    // Sizes stay within one MR, so every offset below is in bounds.
    op.size = 8 + rng.uniform_u64(op.kind == EqOp::Kind::kSend
                                      ? kMrBytes - 7
                                      : 256);
    op.offset = rng.uniform_u64(kMrBytes - op.size + 1);
    // Ops overlap in virtual time, so they queue behind each other at
    // the NICs and switch egress ports.
    vt += static_cast<SimTime>(rng.uniform_u64(from_micros(2)));
    op.vt = vt;
    op.op_id = static_cast<std::uint64_t>(i) + 1;
    if (op.kind == EqOp::Kind::kWrite) {
      op.payload.assign(op.size, static_cast<std::byte>(i));
    }
  }
  return ops;
}

/// Everything observable after a run, in delivery order.
struct Observed {
  std::vector<std::tuple<NicAddr, std::uint64_t, SimTime, std::uint32_t,
                         std::uint64_t>>
      rx;  // (receiver, seq, arrival_vt, hops, tag)
  std::vector<std::tuple<NicAddr, Event::Type, Code, std::uint64_t,
                         std::uint64_t, SimTime, std::vector<std::byte>>>
      events;  // (initiator, type, code, op_id, size, vt, data)
  std::vector<std::vector<std::uint64_t>> switches;
  std::vector<std::vector<std::uint64_t>> nics;
};

Observed observe(EquivalenceRig& rig) {
  Observed o;
  for (std::size_t i = 0; i < rig.eps.size(); ++i) {
    const auto addr = static_cast<NicAddr>(i);
    CassiniNic& nic = rig.f->nic(addr);
    for (const EndpointId ep : {rig.eps[i], rig.rogue[i]}) {
      for (auto p = nic.poll_rx(ep); p.is_ok(); p = nic.poll_rx(ep)) {
        o.rx.emplace_back(addr, p.value().seq, p.value().arrival_vt,
                          p.value().hops, p.value().tag);
      }
      for (auto e = nic.poll_event(ep); e.is_ok(); e = nic.poll_event(ep)) {
        const Event& ev = e.value();
        o.events.emplace_back(addr, ev.type, ev.status.code(), ev.op_id,
                              ev.size, ev.vt, ev.data);
      }
    }
    const NicCounters c = nic.counters();
    o.nics.push_back({c.tx_packets, c.rx_packets, c.tx_dropped,
                      c.rx_unknown_ep, c.rx_vni_mismatch, c.rma_denied,
                      c.rx_overflow, c.event_overflow});
  }
  for (std::size_t s = 0; s < rig.f->switch_count(); ++s) {
    const SwitchCounters c = rig.f->switch_at(s).counters();
    o.switches.push_back(
        {c.delivered, c.dropped_src_unauthorized, c.dropped_dst_unauthorized,
         c.dropped_unknown_dst, c.dropped_no_route, c.dropped_link_down,
         c.dropped_loss, c.dropped_corrupt, c.dropped_stale_epoch,
         c.ack_lost, c.bytes_delivered, c.forwarded, c.bytes_forwarded,
         c.routed_nonminimal});
  }
  return o;
}

void expect_executors_agree(std::size_t nodes, const TopologyConfig& topo) {
  const std::vector<EqOp> ops = seeded_ops(nodes, 400, 0xe9e9);
  EquivalenceRig sync_rig(nodes, topo);
  EquivalenceRig engine_rig(nodes, topo);
  ShardEngine engine(*engine_rig.f, 1);

  for (const EqOp& op : ops) {
    CassiniNic& nic = sync_rig.f->nic(op.src);
    const EndpointId tenant = sync_rig.eps[op.src];
    const EndpointId rogue = sync_rig.rogue[op.src];
    const RKey rkey = sync_rig.rkeys[op.dst];
    Status sync_st;
    Status engine_st;
    switch (op.kind) {
      case EqOp::Kind::kSend:
        sync_st = nic.post_send(tenant, op.dst, sync_rig.eps[op.dst],
                                op.op_id, op.size, {}, op.vt)
                      .status();
        engine_st = engine.post_send(op.src, tenant, op.dst,
                                     engine_rig.eps[op.dst], op.op_id,
                                     op.size, op.vt);
        break;
      case EqOp::Kind::kWrite:
        sync_st = nic.rdma_write(tenant, op.dst, rkey, op.offset, op.size,
                                 op.payload, op.vt, op.op_id)
                      .status();
        engine_st = engine.post_rma_write(op.src, tenant, op.dst, rkey,
                                          op.offset, op.size, op.payload,
                                          op.vt, op.op_id);
        break;
      case EqOp::Kind::kRead:
      case EqOp::Kind::kForeignRead: {
        const EndpointId ep =
            op.kind == EqOp::Kind::kRead ? tenant : rogue;
        sync_st = nic.rdma_read(ep, op.dst, rkey, op.offset, op.size, op.vt,
                                op.op_id)
                      .status();
        engine_st = engine.post_rma_read(op.src, ep, op.dst, rkey,
                                         op.offset, op.size, op.vt,
                                         op.op_id);
        break;
      }
    }
    ASSERT_TRUE(sync_st.is_ok()) << sync_st.message();
    ASSERT_TRUE(engine_st.is_ok()) << engine_st.message();
    engine.flush();
  }

  const Observed want = observe(sync_rig);
  const Observed got = observe(engine_rig);
  EXPECT_EQ(got.rx, want.rx);
  EXPECT_EQ(got.events, want.events);
  EXPECT_EQ(got.switches, want.switches);
  EXPECT_EQ(got.nics, want.nics);
  EXPECT_EQ(engine_rig.mem, sync_rig.mem);

  // The stream exercised every path it claims to compare.
  std::size_t nacks = 0;
  std::size_t read_data = 0;
  for (const auto& e : want.events) {
    nacks += std::get<1>(e) == Event::Type::kError &&
             std::get<2>(e) == Code::kPermissionDenied;
    read_data += std::get<1>(e) == Event::Type::kRdmaReadComplete &&
                 !std::get<6>(e).empty();
  }
  EXPECT_GT(want.rx.size(), 100u);
  EXPECT_GT(nacks, 10u);
  EXPECT_GT(read_data, 50u);
  EXPECT_NE(engine_rig.mem, EquivalenceRig(nodes, topo).mem);
}

TEST(ExecutorEquivalence, SingleSwitch) {
  expect_executors_agree(8, TopologyConfig{});
}

TopologyConfig dragonfly32(RoutingPolicy routing) {
  TopologyConfig topo;
  topo.kind = TopologyKind::kDragonfly;
  topo.nodes_per_switch = 2;
  topo.switches_per_group = 4;
  topo.routing = routing;
  return topo;
}

TEST(ExecutorEquivalence, DragonflyUgal) {
  expect_executors_agree(32, dragonfly32(RoutingPolicy::kUgal));
}

TEST(ExecutorEquivalence, DragonflyValiant) {
  expect_executors_agree(32, dragonfly32(RoutingPolicy::kValiant));
}

}  // namespace
}  // namespace shs::hsn
