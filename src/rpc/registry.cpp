#include "rpc/registry.hpp"

#include "telemetry/metrics.hpp"

namespace jamm::rpc {

namespace {

struct RpcTelemetry {
  telemetry::Counter& invocations;
  telemetry::Counter& activations;
  telemetry::Counter& unloads;
  telemetry::Histogram& invoke_us;
};

RpcTelemetry& Instruments() {
  auto& m = telemetry::Metrics();
  static RpcTelemetry t{m.counter("rpc.invocations"),
                        m.counter("rpc.activations"),
                        m.counter("rpc.unloads"),
                        m.histogram("rpc.invoke_us")};
  return t;
}

}  // namespace

Result<std::string> MethodTableObject::Invoke(
    const std::string& method, const std::vector<std::string>& args) {
  auto it = methods_.find(method);
  if (it == methods_.end()) {
    return Status::NotFound("no method " + method);
  }
  return it->second(args);
}

Status Registry::RegisterActivatable(const std::string& name, Factory factory,
                                     Duration idle_timeout) {
  if (slots_.count(name)) return Status::AlreadyExists("object " + name);
  if (!factory) return Status::InvalidArgument("null factory for " + name);
  Slot slot;
  slot.factory = std::move(factory);
  slot.idle_timeout = idle_timeout;
  slots_[name] = std::move(slot);
  return Status::Ok();
}

Status Registry::RegisterResident(const std::string& name,
                                  std::shared_ptr<RemoteObject> object) {
  if (slots_.count(name)) return Status::AlreadyExists("object " + name);
  if (!object) return Status::InvalidArgument("null object for " + name);
  Slot slot;
  slot.object = std::move(object);
  slots_[name] = std::move(slot);
  return Status::Ok();
}

Status Registry::Unregister(const std::string& name) {
  if (slots_.erase(name) == 0) return Status::NotFound("object " + name);
  return Status::Ok();
}

Result<std::string> Registry::Invoke(const std::string& name,
                                     const std::string& method,
                                     const std::vector<std::string>& args) {
  auto& tm = Instruments();
  telemetry::ScopedTimer invoke_timer(&tm.invoke_us);
  auto it = slots_.find(name);
  if (it == slots_.end()) return Status::NotFound("no object " + name);
  Slot& slot = it->second;
  if (!slot.object) {
    // Activation on first use.
    slot.object = slot.factory();
    if (!slot.object) return Status::Internal("factory for " + name +
                                              " returned null");
    ++stats_.activations;
    tm.activations.Increment();
  }
  slot.last_used = clock_.Now();
  ++stats_.invocations;
  tm.invocations.Increment();
  return slot.object->Invoke(method, args);
}

std::size_t Registry::MaintenanceTick() {
  const TimePoint now = clock_.Now();
  std::size_t unloaded = 0;
  for (auto& [name, slot] : slots_) {
    if (slot.factory && slot.object &&
        now - slot.last_used >= slot.idle_timeout) {
      slot.object.reset();  // "unload themselves after a period of inactivity"
      ++unloaded;
      ++stats_.unloads;
      Instruments().unloads.Increment();
    }
  }
  return unloaded;
}

bool Registry::IsActive(const std::string& name) const {
  auto it = slots_.find(name);
  return it != slots_.end() && it->second.object != nullptr;
}

}  // namespace jamm::rpc
