// RMI-like remote-object layer (paper §3): "The JAMM sensor managers,
// event gateways, and some of the consumers are implemented as Java
// Activatable Remote Method Invocation (RMI) objects... Activatable RMI
// objects can be loaded and run simply by invoking one of their methods,
// and will unload themselves automatically after a period of inactivity."
//
// The C++ reproduction keeps the observable semantics: objects register a
// factory; the first invocation activates (constructs) them; a
// maintenance pass unloads objects idle longer than their timeout; the
// next call re-activates transparently. Method dispatch is by name with
// string-serialized arguments, as RMI marshalling would produce.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "common/status.hpp"

namespace jamm::rpc {

class RemoteObject {
 public:
  virtual ~RemoteObject() = default;

  /// Dispatch `method` with marshalled args; returns the marshalled
  /// result.
  virtual Result<std::string> Invoke(const std::string& method,
                                     const std::vector<std::string>& args) = 0;
};

/// Convenience RemoteObject built from a method table.
class MethodTableObject final : public RemoteObject {
 public:
  using Method =
      std::function<Result<std::string>(const std::vector<std::string>&)>;

  void Register(std::string method, Method fn) {
    methods_[std::move(method)] = std::move(fn);
  }

  Result<std::string> Invoke(const std::string& method,
                             const std::vector<std::string>& args) override;

 private:
  std::map<std::string, Method> methods_;
};

class Registry {
 public:
  explicit Registry(const Clock& clock) : clock_(clock) {}

  using Factory = std::function<std::unique_ptr<RemoteObject>()>;

  /// Register an activatable object: constructed on first invoke, torn
  /// down after `idle_timeout` without calls (see MaintenanceTick).
  Status RegisterActivatable(const std::string& name, Factory factory,
                             Duration idle_timeout = 5 * kMinute);

  /// Register an always-resident object.
  Status RegisterResident(const std::string& name,
                          std::shared_ptr<RemoteObject> object);

  Status Unregister(const std::string& name);

  /// Invoke; activates if necessary.
  Result<std::string> Invoke(const std::string& name,
                             const std::string& method,
                             const std::vector<std::string>& args);

  /// Unload activatable objects idle past their timeout; returns how many
  /// were unloaded. The RMI daemon ran this housekeeping continuously.
  std::size_t MaintenanceTick();

  bool IsActive(const std::string& name) const;

  struct Stats {
    std::uint64_t invocations = 0;
    std::uint64_t activations = 0;
    std::uint64_t unloads = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  struct Slot {
    Factory factory;                    // null for resident objects
    std::shared_ptr<RemoteObject> object;
    Duration idle_timeout = 0;
    TimePoint last_used = 0;
  };

  const Clock& clock_;
  std::map<std::string, Slot> slots_;
  Stats stats_;
};

}  // namespace jamm::rpc
