// Archiver agent (paper §2.2): "This consumer is used to collect data for
// an archive service. It subscribes to the logging agents, collects the
// event data, and places it in the archive. It also creates an archive
// directory service entry indicating the contents of the archive."
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "archive/archive.hpp"
#include "directory/replication.hpp"
#include "directory/schema.hpp"
#include "gateway/gateway.hpp"
#include "gateway/service.hpp"

namespace jamm::consumers {

class ArchiverAgent {
 public:
  /// `clock`, when given, timestamps the HOP.ARCHIVER trace stamp on
  /// traced records; without it the record's own timestamp is used.
  ArchiverAgent(std::string name, archive::EventArchive& archive,
                std::string address = "", const Clock* clock = nullptr);
  ~ArchiverAgent();

  ArchiverAgent(const ArchiverAgent&) = delete;
  ArchiverAgent& operator=(const ArchiverAgent&) = delete;

  /// Subscribe to a gateway; everything delivered is ingested (the
  /// archive's own sampling policy decides what is kept).
  Status SubscribeTo(gateway::EventGateway& gw,
                     const gateway::FilterSpec& spec = {},
                     const std::string& principal = "");

  /// Wire-path feed (ISSUE 2): attach a GatewayClient — typically
  /// dialer-backed, so it reconnects and resubscribes by itself — and
  /// subscribe with `spec`. Drive with PumpRemote() from the host's poll
  /// loop; events that queued during a gateway outage flush into the
  /// archive once drained.
  /// `batch_records` > 0 (ISSUE 3) negotiates batched binary delivery (up
  /// to that many records per transport message).
  Status AttachRemote(std::unique_ptr<gateway::GatewayClient> client,
                      const gateway::FilterSpec& spec = {},
                      std::size_t batch_records = 0);

  /// Drain the remote feed into the archive; returns records ingested this
  /// pump. A drain is archived whole: the gateway's per-subscription queue
  /// is what bounds memory across an outage.
  std::size_t PumpRemote();

  /// Records a drain dropped: always 0, since a drain is archived whole.
  std::uint64_t remote_dropped() const { return 0; }

  /// Publish/refresh the archive's directory entry with a current
  /// contents summary, segment count, and record-time span. Remembers the
  /// pool/suffix so later seals refresh the same entry (ISSUE 5).
  Status PublishTo(directory::DirectoryPool& pool,
                   const directory::Dn& suffix);

  /// Re-publish the directory entry if the archive sealed a segment since
  /// the last publish; returns true when a refresh happened. Called
  /// automatically after every ingest; callers that bypass the agent and
  /// write to the archive directly can invoke it by hand.
  bool MaybeRefreshEntry();

  archive::EventArchive& archive() { return archive_; }

  void UnsubscribeAll();

 private:
  void IngestView(const ulm::RecordView& view);
  TimePoint HopTime(TimePoint record_ts) const {
    return clock_ ? clock_->Now() : record_ts;
  }

  std::string name_;
  archive::EventArchive& archive_;
  std::string address_;
  const Clock* clock_;
  std::vector<std::pair<gateway::EventGateway*, std::string>> subscriptions_;
  std::unique_ptr<gateway::GatewayClient> remote_;
  /// Stamping copy: the gateway's record and the client's drained batch
  /// are borrowed, so a traced view is copied here (capacity reused)
  /// before HOP.ARCHIVER.
  ulm::FlatRecord stamp_scratch_;
  directory::DirectoryPool* published_pool_ = nullptr;
  directory::Dn published_suffix_;
  std::uint64_t published_seals_ = 0;
};

}  // namespace jamm::consumers
