#include "cxi/driver.hpp"

#include <algorithm>

#include "util/log.hpp"
#include "util/strings.hpp"

namespace shs::cxi {

namespace {
constexpr const char* kTag = "cxi-drv";
}

CxiDriver::CxiDriver(linuxsim::Kernel& kernel, hsn::CassiniNic& nic,
                     std::shared_ptr<hsn::RosettaSwitch> edge_switch,
                     AuthMode mode)
    : kernel_(kernel), nic_(nic), switch_(std::move(edge_switch)),
      mode_(mode) {
  // The default service: unrestricted members, default VNI.  Mirrors how
  // single-tenant HPC systems ship, and serves the vni:false baseline.
  CxiServiceDesc def;
  def.name = "default";
  def.restricted_members = false;
  def.restricted_vnis = true;
  def.vnis = {kDefaultVni};
  def.limits.max_endpoints = 4096;

  std::lock_guard<std::mutex> lock(mutex_);
  def.id = next_svc_++;
  authorize_vni_locked(kDefaultVni);
  services_.emplace(def.id, SvcState{std::move(def), 0});
  ++counters_.svc_created;
}

void CxiDriver::set_mode(AuthMode mode) noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  mode_ = mode;
}

Status CxiDriver::check_privileged(linuxsim::Pid caller) const {
  const auto proc = kernel_.find(caller);
  if (!proc) return not_found(strfmt("no such pid %u", caller));
  // Privileged plane requires host root *outside* user namespaces — a
  // container's in-namespace root must not manage services.
  if (proc->user_ns() != nullptr || proc->creds().uid != linuxsim::kRootUid) {
    return permission_denied("CXI service management requires host root");
  }
  return Status::ok();
}

Result<SvcId> CxiDriver::svc_alloc(linuxsim::Pid caller, CxiServiceDesc desc) {
  if (Status st = check_privileged(caller); !st.is_ok()) {
    return Result<SvcId>(std::move(st));
  }
  if (desc.restricted_vnis && desc.vnis.empty()) {
    return Result<SvcId>(
        invalid_argument("restricted-VNI service must list at least one VNI"));
  }
  if (desc.restricted_members && desc.members.empty()) {
    return Result<SvcId>(invalid_argument(
        "restricted-member service must list at least one member"));
  }
  for (const hsn::Vni vni : desc.vnis) {
    if (vni == hsn::kInvalidVni) {
      return Result<SvcId>(invalid_argument("VNI 0 is reserved"));
    }
  }

  std::lock_guard<std::mutex> lock(mutex_);
  desc.id = next_svc_++;
  for (const hsn::Vni vni : desc.vnis) authorize_vni_locked(vni);
  const SvcId id = desc.id;
  SHS_DEBUG(kTag) << "svc_alloc id=" << id << " name=" << desc.name
                  << " members=" << desc.members.size()
                  << " vnis=" << desc.vnis.size();
  services_.emplace(id, SvcState{std::move(desc), 0});
  ++counters_.svc_created;
  return id;
}

Status CxiDriver::svc_destroy(linuxsim::Pid caller, SvcId id) {
  SHS_RETURN_IF_ERROR(check_privileged(caller));
  std::lock_guard<std::mutex> lock(mutex_);
  return destroy_locked(id, /*force=*/false);
}

Status CxiDriver::svc_destroy_force(linuxsim::Pid caller, SvcId id) {
  SHS_RETURN_IF_ERROR(check_privileged(caller));
  std::lock_guard<std::mutex> lock(mutex_);
  return destroy_locked(id, /*force=*/true);
}

Status CxiDriver::destroy_locked(SvcId id, bool force) {
  if (id == kDefaultSvcId) {
    return failed_precondition("the default service cannot be destroyed");
  }
  const auto it = services_.find(id);
  if (it == services_.end()) {
    return not_found(strfmt("no such service %u", id));
  }
  if (it->second.live_endpoints > 0 && !force) {
    return failed_precondition(
        strfmt("service %u still has %u live endpoints", id,
               it->second.live_endpoints));
  }
  if (force) {
    // Reap endpoints allocated through this service (CNI DEL path when a
    // container is torn down with endpoints still open).
    for (auto ep_it = ep_owner_.begin(); ep_it != ep_owner_.end();) {
      if (ep_it->second == id) {
        (void)nic_.free_endpoint(ep_it->first);
        ep_it = ep_owner_.erase(ep_it);
      } else {
        ++ep_it;
      }
    }
  }
  for (const hsn::Vni vni : it->second.desc.vnis) release_vni_locked(vni);
  services_.erase(it);
  ++counters_.svc_destroyed;
  SHS_DEBUG(kTag) << "svc_destroy id=" << id << (force ? " (forced)" : "");
  return Status::ok();
}

Result<CxiServiceDesc> CxiDriver::svc_get(SvcId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = services_.find(id);
  if (it == services_.end()) {
    return Result<CxiServiceDesc>(not_found(strfmt("no such service %u", id)));
  }
  return it->second.desc;
}

std::vector<CxiServiceDesc> CxiDriver::svc_list() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<CxiServiceDesc> out;
  out.reserve(services_.size());
  for (const auto& [id, state] : services_) out.push_back(state.desc);
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.id < b.id; });
  return out;
}

Status CxiDriver::svc_set_enabled(linuxsim::Pid caller, SvcId id,
                                  bool enabled) {
  SHS_RETURN_IF_ERROR(check_privileged(caller));
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = services_.find(id);
  if (it == services_.end()) {
    return not_found(strfmt("no such service %u", id));
  }
  it->second.desc.enabled = enabled;
  return Status::ok();
}

Status CxiDriver::authenticate(linuxsim::Pid caller, const SvcState& svc,
                               hsn::Vni vni, hsn::TrafficClass tc) const {
  const CxiServiceDesc& desc = svc.desc;
  if (!desc.enabled) {
    return permission_denied(strfmt("service %u is disabled", desc.id));
  }
  if (desc.restricted_vnis &&
      std::find(desc.vnis.begin(), desc.vnis.end(), vni) == desc.vnis.end()) {
    return permission_denied(
        strfmt("service %u does not authorize VNI %u", desc.id, vni));
  }
  if (std::find(desc.traffic_classes.begin(), desc.traffic_classes.end(),
                tc) == desc.traffic_classes.end()) {
    return permission_denied(
        strfmt("service %u does not authorize traffic class %d", desc.id,
               static_cast<int>(tc)));
  }
  if (!desc.restricted_members) return Status::ok();

  const auto proc = kernel_.find(caller);
  if (!proc) return not_found(strfmt("no such pid %u", caller));

  for (const SvcMember& m : desc.members) {
    switch (m.type) {
      case MemberType::kUid: {
        // The mode decides *which* UID the driver believes — this is the
        // vulnerability the paper describes (Section III, reason two).
        const linuxsim::Uid uid = (mode_ == AuthMode::kLegacyInNamespace)
                                      ? proc->creds().uid
                                      : proc->host_uid();
        if (static_cast<std::uint64_t>(uid) == m.id) return Status::ok();
        break;
      }
      case MemberType::kGid: {
        const linuxsim::Gid gid = (mode_ == AuthMode::kLegacyInNamespace)
                                      ? proc->creds().gid
                                      : proc->host_gid();
        if (static_cast<std::uint64_t>(gid) == m.id) return Status::ok();
        break;
      }
      case MemberType::kNetNs: {
        // Only the extended driver understands NETNS members.  The inode
        // is read from procfs — kernel ground truth, not caller input.
        if (mode_ != AuthMode::kNetnsExtended) break;
        const auto inode = kernel_.proc_net_ns_inode(caller);
        if (inode.is_ok() && inode.value() == m.id) return Status::ok();
        break;
      }
    }
  }
  return permission_denied(
      strfmt("pid %u matches no member of service %u", caller, desc.id));
}

Result<CxiEndpoint> CxiDriver::ep_alloc(linuxsim::Pid caller, SvcId svc_id,
                                        hsn::Vni vni, hsn::TrafficClass tc) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = services_.find(svc_id);
  if (it == services_.end()) {
    ++counters_.ep_allocs_denied;
    return Result<CxiEndpoint>(not_found(strfmt("no such service %u",
                                                svc_id)));
  }
  if (Status st = authenticate(caller, it->second, vni, tc); !st.is_ok()) {
    ++counters_.ep_allocs_denied;
    SHS_DEBUG(kTag) << "ep_alloc denied pid=" << caller << " svc=" << svc_id
                    << " vni=" << vni << ": " << st;
    return Result<CxiEndpoint>(std::move(st));
  }
  if (it->second.live_endpoints >= it->second.desc.limits.max_endpoints) {
    ++counters_.ep_allocs_denied;
    return Result<CxiEndpoint>(resource_exhausted(
        strfmt("service %u endpoint limit (%u) reached", svc_id,
               it->second.desc.limits.max_endpoints)));
  }
  auto ep = nic_.alloc_endpoint(vni, tc);
  if (!ep.is_ok()) {
    ++counters_.ep_allocs_denied;
    return Result<CxiEndpoint>(ep.status());
  }
  ++it->second.live_endpoints;
  ep_owner_.emplace(ep.value(), svc_id);
  ++counters_.ep_allocs_granted;
  return CxiEndpoint{ep.value(), nic_.addr(), vni, tc, svc_id};
}

Result<CxiEndpoint> CxiDriver::ep_alloc_any_svc(linuxsim::Pid caller,
                                                hsn::Vni vni,
                                                hsn::TrafficClass tc) {
  // libcxi behaviour: scan services and use the first that authorizes the
  // caller for this VNI.  Collect ids under the lock, then try each
  // through the public path (which re-locks) to keep the logic in one
  // place.
  std::vector<SvcId> ids;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ids.reserve(services_.size());
    for (const auto& [id, state] : services_) ids.push_back(id);
    std::sort(ids.begin(), ids.end());
  }
  Status last = permission_denied("no service authorizes this VNI");
  for (const SvcId id : ids) {
    auto r = ep_alloc(caller, id, vni, tc);
    if (r.is_ok()) return r;
    if (r.code() != Code::kPermissionDenied &&
        r.code() != Code::kNotFound) {
      return r;  // e.g. resource exhaustion: surface immediately
    }
    last = r.status();
  }
  return Result<CxiEndpoint>(std::move(last));
}

Status CxiDriver::ep_free(linuxsim::Pid caller, const CxiEndpoint& ep) {
  (void)caller;  // freeing your own EP handle needs no re-authentication
  std::lock_guard<std::mutex> lock(mutex_);
  const auto owner_it = ep_owner_.find(ep.ep);
  if (owner_it == ep_owner_.end()) {
    return not_found(strfmt("endpoint %u not tracked", ep.ep));
  }
  const auto svc_it = services_.find(owner_it->second);
  if (svc_it != services_.end() && svc_it->second.live_endpoints > 0) {
    --svc_it->second.live_endpoints;
  }
  ep_owner_.erase(owner_it);
  return nic_.free_endpoint(ep.ep);
}

void CxiDriver::authorize_vni_locked(hsn::Vni vni) {
  if (++vni_refs_[vni] == 1) {
    (void)switch_->authorize_vni(nic_.addr(), vni);
  }
}

void CxiDriver::release_vni_locked(hsn::Vni vni) {
  const auto it = vni_refs_.find(vni);
  if (it == vni_refs_.end()) return;
  if (--it->second == 0) {
    vni_refs_.erase(it);
    (void)switch_->revoke_vni(nic_.addr(), vni);
  }
}

DriverCounters CxiDriver::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

std::size_t CxiDriver::live_endpoints(SvcId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = services_.find(id);
  return it == services_.end() ? 0 : it->second.live_endpoints;
}

}  // namespace shs::cxi
