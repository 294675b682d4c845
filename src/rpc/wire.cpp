#include "rpc/wire.hpp"

#include "telemetry/metrics.hpp"

namespace jamm::rpc {
namespace {

void PutVarint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

bool GetVarint(std::string_view data, std::size_t& i, std::uint64_t& v) {
  v = 0;
  int shift = 0;
  while (i < data.size() && shift < 64) {
    const std::uint8_t byte = static_cast<std::uint8_t>(data[i++]);
    v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if (!(byte & 0x80)) return true;
    shift += 7;
  }
  return false;
}

}  // namespace

std::string EncodeStrings(const std::vector<std::string>& parts) {
  std::string out;
  PutVarint(out, parts.size());
  for (const auto& p : parts) {
    PutVarint(out, p.size());
    out += p;
  }
  return out;
}

void AppendStrings(std::string& out,
                   std::initializer_list<std::string_view> parts) {
  PutVarint(out, parts.size());
  for (std::string_view p : parts) {
    PutVarint(out, p.size());
    out += p;
  }
}

Result<std::vector<std::string>> DecodeStrings(std::string_view data) {
  std::size_t i = 0;
  std::uint64_t count;
  if (!GetVarint(data, i, count)) {
    return Status::ParseError("rpc marshal: truncated count");
  }
  // Every element costs at least one length byte, so a count beyond the
  // remaining input is forged — reject it BEFORE reserving, or a hostile
  // varint (up to 2^64) turns into a bad_alloc instead of a parse error.
  if (count > data.size() - i) {
    return Status::ParseError("rpc marshal: implausible count");
  }
  std::vector<std::string> out;
  out.reserve(count);
  for (std::uint64_t k = 0; k < count; ++k) {
    std::uint64_t len;
    if (!GetVarint(data, i, len) || i + len > data.size()) {
      return Status::ParseError("rpc marshal: truncated string " +
                                std::to_string(k));
    }
    out.emplace_back(data.substr(i, len));
    i += len;
  }
  if (i != data.size()) {
    return Status::ParseError("rpc marshal: trailing bytes");
  }
  return out;
}

RpcServer::RpcServer(Registry& registry,
                     std::unique_ptr<transport::Listener> listener)
    : registry_(registry),
      listener_(std::move(listener)),
      address_(listener_->address()) {}

std::size_t RpcServer::PollOnce() {
  while (true) {
    auto channel = listener_->Accept(0);
    if (!channel.ok()) break;
    connections_.push_back(
        std::shared_ptr<transport::Channel>(std::move(*channel)));
  }
  auto& m = telemetry::Metrics();
  static telemetry::Counter& calls = m.counter("rpc.server.calls");
  static telemetry::Counter& errors = m.counter("rpc.server.errors");
  std::size_t served = 0;
  for (auto& conn : connections_) {
    while (auto msg = conn->TryReceive()) {
      calls.Increment();
      if (msg->type != "rpc.call") {
        errors.Increment();
        (void)conn->Send({"rpc.error", "expected rpc.call"});
        continue;
      }
      auto parts = DecodeStrings(msg->payload);
      if (!parts.ok() || parts->size() < 2) {
        errors.Increment();
        (void)conn->Send({"rpc.error", "malformed call"});
        continue;
      }
      const std::string object = (*parts)[0];
      const std::string method = (*parts)[1];
      std::vector<std::string> args(parts->begin() + 2, parts->end());
      auto result = registry_.Invoke(object, method, args);
      if (result.ok()) {
        (void)conn->Send({"rpc.ok", EncodeStrings({*result})});
      } else {
        errors.Increment();
        (void)conn->Send({"rpc.error", result.status().ToString()});
      }
      ++served;
    }
  }
  std::erase_if(connections_, [](const auto& c) { return !c->IsOpen(); });
  registry_.MaintenanceTick();
  return served;
}

Result<std::string> RpcClient::Call(const std::string& object,
                                    const std::string& method,
                                    const std::vector<std::string>& args,
                                    Duration timeout) {
  if (!dialer_) return CallOnce(object, method, args, timeout);

  auto& m = telemetry::Metrics();
  static telemetry::Counter& redials = m.counter("rpc.client.redials");

  resilience::Retryer retryer(
      policy_, clock_ ? *clock_ : SystemClock::Instance(), seed_);
  Result<std::string> out = Status::Internal("rpc call never attempted");
  Status status = retryer.Run([&] {
    if (!channel_) {
      auto fresh = dialer_();
      if (!fresh.ok()) return fresh.status();
      channel_ = std::move(*fresh);
      redials.Increment();
    }
    auto reply = CallOnce(object, method, args, timeout);
    if (reply.ok()) {
      out = std::move(reply);
      return Status::Ok();
    }
    // A dead connection is useless for the next attempt; re-dial it.
    if (reply.status().code() == StatusCode::kUnavailable) channel_.reset();
    return reply.status();
  });
  if (!status.ok()) return status;
  return out;
}

Result<std::string> RpcClient::CallOnce(const std::string& object,
                                        const std::string& method,
                                        const std::vector<std::string>& args,
                                        Duration timeout) {
  std::vector<std::string> parts;
  parts.reserve(args.size() + 2);
  parts.push_back(object);
  parts.push_back(method);
  parts.insert(parts.end(), args.begin(), args.end());
  JAMM_RETURN_IF_ERROR(channel_->Send({"rpc.call", EncodeStrings(parts)}));
  auto reply = channel_->Receive(timeout);
  if (!reply.ok()) return reply.status();
  if (reply->type == "rpc.error") {
    return Status::Internal("remote error: " + reply->payload);
  }
  if (reply->type != "rpc.ok") {
    return Status::Internal("unexpected reply type " + reply->type);
  }
  auto decoded = DecodeStrings(reply->payload);
  if (!decoded.ok()) return decoded.status();
  if (decoded->size() != 1) {
    return Status::ParseError("rpc reply should carry one result");
  }
  return (*decoded)[0];
}

}  // namespace jamm::rpc
