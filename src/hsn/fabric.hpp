// fabric.hpp — topology builder: N nodes, one Cassini NIC each, wired
// into one of the supported switch topologies (the paper's testbed is two
// OpenCUBE nodes on a single Rosetta switch; fat-tree and dragonfly plans
// scale the same stack to rack-and-beyond clusters).
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "hsn/cassini_nic.hpp"
#include "hsn/fabric_manager.hpp"
#include "hsn/rosetta_switch.hpp"
#include "hsn/timing.hpp"
#include "hsn/topology.hpp"

namespace shs::hsn {

/// Owns the switches, inter-switch links, timing model, and per-node NICs.
class Fabric {
 public:
  /// Builds a fabric of `nodes` NICs (addresses 0..nodes-1) wired per
  /// `topology` (default: the paper's single switch).
  static std::unique_ptr<Fabric> create(std::size_t nodes,
                                        TimingConfig config = {},
                                        std::uint64_t seed = 0x51e6,
                                        TopologyConfig topology = {});

  [[nodiscard]] std::shared_ptr<TimingModel> timing() const noexcept {
    return timing_;
  }

  // -- Topology introspection.
  [[nodiscard]] const TopologyConfig& topology() const noexcept {
    return topology_;
  }
  [[nodiscard]] RoutingPolicy routing_policy() const noexcept {
    return topology_.routing;
  }
  /// The currently *published* plan (next hops, candidates, hop
  /// distances) shared with every switch — the fabric manager's latest
  /// version, not necessarily the pristine build.  Its nic_home vector
  /// is cleared — use home_switch.  Returned shared so the snapshot
  /// outlives a concurrent republish.
  [[nodiscard]] std::shared_ptr<const TopologyPlan> plan() const {
    return manager_->plan();
  }
  [[nodiscard]] std::size_t switch_count() const noexcept {
    return switches_.size();
  }
  [[nodiscard]] RosettaSwitch& switch_at(std::size_t i) {
    return *switches_.at(i);
  }
  /// Edge switch hosting NIC `addr` (kInvalidSwitch if out of range).
  [[nodiscard]] SwitchId home_switch(NicAddr addr) const noexcept {
    return addr < nic_home_->size() ? (*nic_home_)[addr] : kInvalidSwitch;
  }
  /// Shared pointer to the edge switch of NIC `addr` — what a node's CXI
  /// driver must program VNI ACLs against.
  [[nodiscard]] std::shared_ptr<RosettaSwitch> switch_for(
      NicAddr addr) const {
    const SwitchId home = home_switch(addr);
    return home == kInvalidSwitch ? nullptr : switches_.at(home);
  }

  /// The single data-plane entry point: routes `p` at its source NIC's
  /// edge switch, per the fabric manager's currently published tables.
  /// NICs inject through this (instead of holding a switch pointer they
  /// would have to re-validate after a topology republish).  Inline: it
  /// runs once per packet.
  RouteResult inject(Packet&& p) {
    const SwitchId home = home_switch(p.src);
    if (home == kInvalidSwitch) {
      RouteResult result;
      result.reason = DropReason::kNoRoute;
      return result;
    }
    return switches_[home]->route(std::move(p));
  }

  // -- Fault tolerance: failure injection, observation, re-routing.
  //    All forwarded to the FabricManager; see fabric_manager.hpp for
  //    the repair contract (data plane marked down immediately, tables
  //    republished synchronously unless auto-repair is off).

  [[nodiscard]] FabricManager& manager() noexcept { return *manager_; }
  [[nodiscard]] const FabricManager& manager() const noexcept {
    return *manager_;
  }
  Status fail_link(SwitchId a, SwitchId b) {
    return manager_->fail_link(a, b);
  }
  Status restore_link(SwitchId a, SwitchId b) {
    return manager_->restore_link(a, b);
  }
  Status fail_switch(SwitchId s) { return manager_->fail_switch(s); }
  Status restore_switch(SwitchId s) { return manager_->restore_switch(s); }
  [[nodiscard]] SwitchHealth switch_health(SwitchId s) const {
    return manager_->switch_health(s);
  }
  [[nodiscard]] bool link_up(SwitchId a, SwitchId b) const {
    return manager_->link_up(a, b);
  }

  // -- Lossy/transient fault plane (see docs/reliability.md).  Composes
  //    with fail_link/fail_switch: those mark elements down through the
  //    manager (triggering replans); these inject probabilistic loss and
  //    timed flaps the manager never sees.  Flag-gated on every switch —
  //    zero cost until armed.

  /// Installs `p` on every switch: all inter-switch uplinks plus every
  /// edge (switch->NIC) link.
  void set_fault_profile(const FaultProfile& p) {
    for (auto& sw : switches_) sw->set_fault_profile(p);
  }
  /// Installs `p` on both directions of the physical link (a, b).
  Status set_link_fault_profile(SwitchId a, SwitchId b,
                                const FaultProfile& p);
  /// Flaps both directions of (a, b) for [down_from, down_until) of
  /// packet virtual time — transient, invisible to the fabric manager.
  Status add_link_flap(SwitchId a, SwitchId b, SimTime down_from,
                       SimTime down_until);
  /// Removes every installed profile and flap window fabric-wide.
  void clear_fault_profiles() {
    for (auto& sw : switches_) sw->clear_faults();
  }

  // -- Reliable delivery (NIC retransmit protocol; docs/reliability.md).

  /// Installs `cfg` on every NIC.  Call before traffic starts.
  void set_reliability(const ReliabilityConfig& cfg) {
    for (auto& nic : nics_) nic->set_reliability(cfg);
  }
  /// Installs `hook` on every NIC (single-threaded harnesses only; see
  /// CassiniNic::set_retry_hook).
  void set_retry_hook(const CassiniNic::RetryHook& hook) {
    for (auto& nic : nics_) nic->set_retry_hook(hook);
  }
  /// Flips every NIC's degraded-mode flag (control plane down —
  /// replan-dependent retries stretch their budget; see
  /// ReliabilityConfig::degraded_retry_factor).
  void set_degraded(bool on) noexcept {
    for (auto& nic : nics_) nic->set_degraded(on);
  }
  /// Reliability accounting summed across every NIC.
  [[nodiscard]] ReliabilityCounters reliability_totals() const;
  /// Total NIC-side RX-ring overflow drops (DropReason::kRxOverflow).
  [[nodiscard]] std::uint64_t total_rx_overflow() const;
  /// The fabric manager's currently published table version.
  [[nodiscard]] std::uint64_t plan_version() const {
    return manager_->plan_version();
  }

  /// Toggles VNI enforcement on every switch.  The VNI checks are edge
  /// properties (source edge checks the sender, destination edge the
  /// receiver), so a consistent fabric-wide state must reach all
  /// switches — toggling just one leaves cross-switch traffic checked
  /// at the other edge.
  void set_enforcement(bool on) noexcept {
    for (auto& sw : switches_) sw->set_enforcement(on);
  }

  // -- Fabric-wide accounting (sums across all switches).
  [[nodiscard]] SwitchCounters total_counters() const;
  [[nodiscard]] SwitchCounters total_counters_for_vni(Vni vni) const;
  /// Bytes that crossed inter-switch links (0 on a single switch).
  [[nodiscard]] std::uint64_t cross_switch_bytes() const;

  // -- Congestion telemetry (see RosettaSwitch::uplink_queue_lag).
  /// Worst current queue lag across every inter-switch uplink at virtual
  /// time `at` — the fabric-wide congestion snapshot the scheduler's bind
  /// telemetry samples.
  [[nodiscard]] SimDuration max_uplink_lag(SimTime at) const;
  /// Worst queue lag any uplink ever saw at forward time (high-water
  /// mark over the fabric's lifetime).
  [[nodiscard]] SimDuration peak_uplink_lag() const;

  /// NIC at fabric address `addr` (must be < node_count()).
  [[nodiscard]] CassiniNic& nic(NicAddr addr) { return *nics_.at(addr); }
  [[nodiscard]] const CassiniNic& nic(NicAddr addr) const {
    return *nics_.at(addr);
  }

  [[nodiscard]] std::size_t node_count() const noexcept {
    return nics_.size();
  }

 private:
  Fabric() = default;
  TopologyConfig topology_;
  std::shared_ptr<TimingModel> timing_;
  std::shared_ptr<const std::vector<SwitchId>> nic_home_;
  std::vector<std::shared_ptr<RosettaSwitch>> switches_;
  std::unique_ptr<FabricManager> manager_;
  std::vector<std::unique_ptr<CassiniNic>> nics_;
};

}  // namespace shs::hsn
