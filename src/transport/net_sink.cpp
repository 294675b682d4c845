#include "transport/net_sink.hpp"

namespace jamm::transport {

Status NetSink::Write(const ulm::RecordView& rec) {
  Message msg;
  if (binary_) {
    msg.type = kBinaryEventMessageType;
    rec.EncodeBinary(msg.payload);
  } else {
    msg.type = kEventMessageType;
    rec.AppendAscii(msg.payload);
  }
  return channel_->Send(msg);
}

Result<ulm::FlatRecord> DecodeEventMessage(const Message& msg) {
  if (msg.type == kEventMessageType) {
    return ulm::FlatRecord::FromAscii(msg.payload);
  }
  if (msg.type == kBinaryEventMessageType) {
    ulm::FlatBatch batch;
    JAMM_RETURN_IF_ERROR(batch.DecodeBinaryStreamInto(msg.payload));
    if (batch.size() != 1) {
      return Status::ParseError("binary event message holds " +
                                std::to_string(batch.size()) + " records");
    }
    ulm::FlatRecord rec;
    rec.Assign(batch.View(0));
    return rec;
  }
  return Status::InvalidArgument("not an event message: " + msg.type);
}

}  // namespace jamm::transport
