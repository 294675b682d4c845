#include "transport/net_sink.hpp"

#include "ulm/binary.hpp"

namespace jamm::transport {

Status NetSink::Write(const ulm::Record& rec) {
  Message msg;
  if (binary_) {
    msg.type = kBinaryEventMessageType;
    msg.payload = ulm::EncodeBinary(rec);
  } else {
    msg.type = kEventMessageType;
    msg.payload = rec.ToAscii();
  }
  return channel_->Send(msg);
}

Result<ulm::Record> DecodeEventMessage(const Message& msg) {
  if (msg.type == kEventMessageType) {
    return ulm::Record::FromAscii(msg.payload);
  }
  if (msg.type == kBinaryEventMessageType) {
    std::size_t offset = 0;
    return ulm::DecodeBinary(msg.payload, &offset);
  }
  return Status::InvalidArgument("not an event message: " + msg.type);
}

}  // namespace jamm::transport
