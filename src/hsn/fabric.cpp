#include "hsn/fabric.hpp"

#include <algorithm>
#include <cstdlib>

#include "util/log.hpp"

namespace shs::hsn {

namespace {
constexpr const char* kTag = "fabric";
}  // namespace

std::unique_ptr<Fabric> Fabric::create(std::size_t nodes, TimingConfig config,
                                       std::uint64_t seed,
                                       TopologyConfig topology) {
  auto fabric = std::unique_ptr<Fabric>(new Fabric());
  fabric->topology_ = topology;
  fabric->timing_ = std::make_shared<TimingModel>(config, seed);

  auto plan = std::make_shared<TopologyPlan>(
      TopologyPlan::build(topology, nodes, seed));
  fabric->nic_home_ = std::make_shared<const std::vector<SwitchId>>(
      std::move(plan->nic_home));
  plan->nic_home.clear();  // switches read the shared nic_home_ instead

  fabric->switches_.reserve(plan->switch_count);
  for (std::size_t i = 0; i < plan->switch_count; ++i) {
    fabric->switches_.push_back(std::make_shared<RosettaSwitch>(
        fabric->timing_, static_cast<SwitchId>(i), seed));
  }
  for (const TopologyPlan::PlannedLink& link : plan->links) {
    const Status st = fabric->switches_.at(link.from)->add_uplink(
        *fabric->switches_.at(link.to), link.rate, link.latency);
    if (!st.is_ok()) {
      // A rejected link means the TopologyPlan violated its own
      // invariants (duplicate or self link).  Failing here is a
      // construction-time bug report; proceeding would degrade into
      // silent kNoRoute drops mid-simulation.
      SHS_ERROR(kTag) << "uplink " << link.from << " -> " << link.to
                      << " failed: " << st;
      std::abort();
    }
  }
  const std::size_t switch_count = plan->switch_count;
  // The fabric manager takes over the plan: it publishes version 0 to
  // every switch now and republishes repaired versions after failures.
  fabric->manager_ = std::make_unique<FabricManager>(
      fabric->switches_, fabric->nic_home_, std::move(*plan));

  // NICs attach last, each to its edge switch, so forwarding state is
  // complete before the first packet can possibly route.  The NIC sends
  // through Fabric::inject and the switch delivers into its deliver() —
  // the Fabric owns both sides of the wiring.
  fabric->nics_.reserve(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    const auto addr = static_cast<NicAddr>(i);
    fabric->nics_.push_back(
        std::make_unique<CassiniNic>(addr, *fabric, fabric->timing_));
    const Status st = fabric->switches_.at((*fabric->nic_home_)[i])
                          ->connect(addr, *fabric->nics_.back());
    if (!st.is_ok()) {
      SHS_ERROR(kTag) << "NIC " << addr << " failed to connect: " << st;
      std::abort();
    }
  }
  SHS_DEBUG(kTag) << topology_kind_name(topology.kind) << " fabric: "
                  << nodes << " nodes across " << switch_count
                  << " switches, " << routing_policy_name(topology.routing)
                  << " routing";
  return fabric;
}

Status Fabric::set_link_fault_profile(SwitchId a, SwitchId b,
                                      const FaultProfile& p) {
  if (a >= switches_.size() || b >= switches_.size()) {
    return not_found("no such switch");
  }
  const Status ab = switches_[a]->set_uplink_fault_profile(b, p);
  if (!ab.is_ok()) return ab;
  return switches_[b]->set_uplink_fault_profile(a, p);
}

Status Fabric::add_link_flap(SwitchId a, SwitchId b, SimTime down_from,
                             SimTime down_until) {
  if (a >= switches_.size() || b >= switches_.size()) {
    return not_found("no such switch");
  }
  const Status ab = switches_[a]->add_uplink_flap(b, down_from, down_until);
  if (!ab.is_ok()) return ab;
  return switches_[b]->add_uplink_flap(a, down_from, down_until);
}

ReliabilityCounters Fabric::reliability_totals() const {
  ReliabilityCounters totals;
  for (const auto& nic : nics_) {
    const ReliabilityCounters c = nic->reliability_counters();
    totals.retransmits += c.retransmits;
    totals.duplicates += c.duplicates;
    totals.budget_exhausted += c.budget_exhausted;
    totals.recovered += c.recovered;
    totals.recovered_after_replan += c.recovered_after_replan;
  }
  return totals;
}

std::uint64_t Fabric::total_rx_overflow() const {
  std::uint64_t total = 0;
  for (const auto& nic : nics_) total += nic->counters().rx_overflow;
  return total;
}

SwitchCounters Fabric::total_counters() const {
  SwitchCounters totals;
  for (const auto& sw : switches_) totals += sw->counters();
  return totals;
}

SwitchCounters Fabric::total_counters_for_vni(Vni vni) const {
  SwitchCounters totals;
  for (const auto& sw : switches_) {
    totals += sw->counters_for_vni(vni);
  }
  return totals;
}

std::uint64_t Fabric::cross_switch_bytes() const {
  return total_counters().bytes_forwarded;
}

SimDuration Fabric::max_uplink_lag(SimTime at) const {
  SimDuration worst = 0;
  for (const auto& sw : switches_) {
    worst = std::max(worst, sw->max_uplink_lag(at));
  }
  return worst;
}

SimDuration Fabric::peak_uplink_lag() const {
  SimDuration worst = 0;
  for (const auto& sw : switches_) {
    worst = std::max(worst, sw->peak_uplink_lag());
  }
  return worst;
}

}  // namespace shs::hsn
