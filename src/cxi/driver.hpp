// driver.hpp — the (simulated) CXI kernel driver, per node.
//
// This is where the paper's contribution (A) lives.  The driver owns the
// node's CXI service table and authenticates every RDMA-endpoint
// allocation.  Three authentication modes are implemented so the paper's
// security argument is directly testable:
//
//  * kLegacyInNamespace — the stock driver behaviour the paper criticizes:
//    credentials are read as the calling process presents them *inside its
//    user namespace*.  A container started with a user-namespace root
//    mapping can setuid() to any mapped ID and impersonate other members.
//  * kHostUidGid — the "driver modified to respect user namespaces"
//    variant the paper mentions: host-view credentials.  Spoof-proof, but
//    useless under Kubernetes because all pods run as the same host user.
//  * kNetnsExtended — the paper's fix: authenticate by the network
//    namespace inode read from procfs, which userspace cannot change.
//
// The driver also plays the fabric-manager role for its port: creating a
// service that lists VNI v authorizes this NIC's switch port for v
// (refcounted across services); destroying the last such service revokes
// it.  That is how per-job CXI services translate into switch-enforced
// isolation domains.
#pragma once

#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "cxi/service.hpp"
#include "hsn/cassini_nic.hpp"
#include "hsn/rosetta_switch.hpp"
#include "linuxsim/kernel.hpp"
#include "util/status.hpp"

namespace shs::cxi {

/// Authentication mode of the driver (see file comment).
enum class AuthMode : std::uint8_t {
  kLegacyInNamespace = 0,
  kHostUidGid = 1,
  kNetnsExtended = 2,
};

struct DriverCounters {
  std::uint64_t ep_allocs_granted = 0;
  std::uint64_t ep_allocs_denied = 0;
  std::uint64_t svc_created = 0;
  std::uint64_t svc_destroyed = 0;
};

/// One driver instance per node/NIC.  Thread-safe.
class CxiDriver {
 public:
  /// Binds the driver to its node's kernel and NIC.  A default,
  /// unrestricted service exposing `kDefaultVni` is created, mirroring
  /// single-tenant HPC deployments (and the paper's vni:false baseline).
  CxiDriver(linuxsim::Kernel& kernel, hsn::CassiniNic& nic,
            std::shared_ptr<hsn::RosettaSwitch> edge_switch,
            AuthMode mode = AuthMode::kNetnsExtended);

  [[nodiscard]] AuthMode mode() const noexcept { return mode_; }
  void set_mode(AuthMode mode) noexcept;

  // -- Privileged plane.  `caller` must be host root outside any user
  //    namespace (the CNI plugin and slurmd-style daemons qualify).

  /// Allocates a service.  `desc.id` is assigned by the driver.
  Result<SvcId> svc_alloc(linuxsim::Pid caller, CxiServiceDesc desc);
  /// Destroys a service and releases its VNI authorizations.  Fails with
  /// kFailedPrecondition while endpoints allocated through it are live.
  Status svc_destroy(linuxsim::Pid caller, SvcId id);
  /// Destroys a service, force-freeing any endpoints allocated through it
  /// (used by CNI DEL when tearing down a still-running container).
  Status svc_destroy_force(linuxsim::Pid caller, SvcId id);
  Result<CxiServiceDesc> svc_get(SvcId id) const;
  [[nodiscard]] std::vector<CxiServiceDesc> svc_list() const;
  Status svc_set_enabled(linuxsim::Pid caller, SvcId id, bool enabled);

  // -- User plane.

  /// Authenticates `caller` against service `svc` and, on success,
  /// allocates a NIC endpoint bound to `vni`/`tc`.  This is the security
  /// boundary of the whole stack (Section III-A).
  Result<CxiEndpoint> ep_alloc(linuxsim::Pid caller, SvcId svc, hsn::Vni vni,
                               hsn::TrafficClass tc);
  Status ep_free(linuxsim::Pid caller, const CxiEndpoint& ep);

  /// Convenience: searches all services for one that authorizes `caller`
  /// for `vni` (what libcxi does when no explicit service is named).
  Result<CxiEndpoint> ep_alloc_any_svc(linuxsim::Pid caller, hsn::Vni vni,
                                       hsn::TrafficClass tc);

  [[nodiscard]] DriverCounters counters() const;
  [[nodiscard]] std::size_t live_endpoints(SvcId id) const;

 private:
  struct SvcState {
    CxiServiceDesc desc;
    std::uint32_t live_endpoints = 0;
  };

  Status check_privileged(linuxsim::Pid caller) const;
  /// The auth decision: does `caller` match a member of `svc` under the
  /// current mode, and is `vni` in the service's allow-list?
  Status authenticate(linuxsim::Pid caller, const SvcState& svc,
                      hsn::Vni vni, hsn::TrafficClass tc) const;
  void authorize_vni_locked(hsn::Vni vni);
  void release_vni_locked(hsn::Vni vni);
  Status destroy_locked(SvcId id, bool force);

  linuxsim::Kernel& kernel_;
  hsn::CassiniNic& nic_;
  std::shared_ptr<hsn::RosettaSwitch> switch_;
  AuthMode mode_;

  mutable std::mutex mutex_;
  SvcId next_svc_ = kDefaultSvcId;
  std::unordered_map<SvcId, SvcState> services_;
  /// (vni -> number of services referencing it) for switch-port ACLs.
  std::unordered_map<hsn::Vni, std::uint32_t> vni_refs_;
  /// ep -> owning service, for ep_free bookkeeping.
  std::unordered_map<hsn::EndpointId, SvcId> ep_owner_;
  DriverCounters counters_;
};

}  // namespace shs::cxi
