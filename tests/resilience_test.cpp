// Tests for the resilience layer (ISSUE 2): retry/backoff/deadline,
// circuit breaker, deterministic fault injection, the gateway client's
// reconnect + resubscribe path, the directory pool's write failover and
// reconvergence, and the consumers' buffer-and-flush remote feeds.
//
// Everything is seeded and clock-injected; the only real time spent is in
// the two wall-clock regression tests that pin the absolute-deadline fix.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "archive/archive.hpp"
#include "consumers/archiver.hpp"
#include "consumers/collector.hpp"
#include "directory/replication.hpp"
#include "directory/schema.hpp"
#include "gateway/gateway.hpp"
#include "gateway/service.hpp"
#include "resilience/breaker.hpp"
#include "resilience/buffer.hpp"
#include "resilience/fault.hpp"
#include "resilience/retry.hpp"
#include "resilience/supervisor.hpp"
#include "rpc/registry.hpp"
#include "telemetry/metrics.hpp"
#include "rpc/wire.hpp"
#include "transport/inproc.hpp"
#include "transport/net_sink.hpp"
#include "record_helpers.hpp"

namespace jamm::resilience {
namespace {

ulm::Record ValueEvent(TimePoint ts, const std::string& event, double value) {
  ulm::Record rec(ts, "h1", "sensor", "Usage", event);
  rec.SetField("VAL", value);
  return rec;
}

/// A sleep hook that advances a SimClock instead of blocking, so retry
/// deadline arithmetic runs in simulated time.
Retryer::SleepFn AdvanceOn(SimClock& clock) {
  return [&clock](Duration d) { clock.Advance(d); };
}

// ------------------------------------------------------------------ Retryer

TEST(RetryerTest, SucceedsAfterTransientFailures) {
  SimClock clock;
  Retryer retryer({}, clock);
  retryer.set_sleep(AdvanceOn(clock));
  int calls = 0;
  Status status = retryer.Run([&] {
    return ++calls < 3 ? Status::Unavailable("flaky") : Status::Ok();
  });
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(retryer.last_attempts(), 3);
}

TEST(RetryerTest, NonRetryableReturnsImmediately) {
  SimClock clock;
  Retryer retryer({}, clock);
  retryer.set_sleep(AdvanceOn(clock));
  int calls = 0;
  Status status = retryer.Run([&] {
    ++calls;
    return Status::InvalidArgument("bad request");
  });
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(calls, 1);
}

TEST(RetryerTest, TimeoutRetriedOnlyWhenOptedIn) {
  SimClock clock;
  int calls = 0;
  auto timeout_fn = [&] {
    ++calls;
    return Status::Timeout("slow");
  };

  Retryer cautious({}, clock);
  cautious.set_sleep(AdvanceOn(clock));
  EXPECT_EQ(cautious.Run(timeout_fn).code(), StatusCode::kTimeout);
  EXPECT_EQ(calls, 1);  // at-least-once hazard: no retry by default

  RetryPolicy opt_in;
  opt_in.retry_timeouts = true;
  opt_in.max_attempts = 3;
  Retryer eager(opt_in, clock);
  eager.set_sleep(AdvanceOn(clock));
  calls = 0;
  EXPECT_EQ(eager.Run(timeout_fn).code(), StatusCode::kTimeout);
  EXPECT_EQ(calls, 3);
}

TEST(RetryerTest, AttemptBudgetBounds) {
  SimClock clock;
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.deadline = 0;  // attempts only
  Retryer retryer(policy, clock);
  retryer.set_sleep(AdvanceOn(clock));
  int calls = 0;
  Status status = retryer.Run([&] {
    ++calls;
    return Status::Unavailable("always down");
  });
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(calls, 4);
}

TEST(RetryerTest, DeadlineBoundsTotalElapsed) {
  SimClock clock;
  RetryPolicy policy;
  policy.max_attempts = 1000;
  policy.initial_backoff = 30 * kMillisecond;
  policy.multiplier = 1.0;
  policy.jitter = 0;
  policy.deadline = 100 * kMillisecond;
  Retryer retryer(policy, clock);
  retryer.set_sleep(AdvanceOn(clock));
  const TimePoint start = clock.Now();
  Status status = retryer.Run([] { return Status::Unavailable("down"); });
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  // Pauses are truncated to the remaining budget, so the run ends exactly
  // at (never past) the deadline, well short of 1000 attempts.
  EXPECT_LE(clock.Now() - start, policy.deadline);
  EXPECT_LT(retryer.last_attempts(), 10);
}

TEST(RetryerTest, DeadlineTruncatesSleepsUnderInjectedDelays) {
  // Even when each "network operation" itself burns simulated time (as a
  // FaultPlan delay would), the budget holds.
  SimClock clock;
  RetryPolicy policy;
  policy.max_attempts = 100;
  policy.initial_backoff = 10 * kMillisecond;
  policy.jitter = 0.2;
  policy.deadline = 200 * kMillisecond;
  Retryer retryer(policy, clock);
  retryer.set_sleep(AdvanceOn(clock));
  const TimePoint start = clock.Now();
  Status status = retryer.Run([&] {
    clock.Advance(15 * kMillisecond);  // the attempt itself takes time
    return Status::Unavailable("down");
  });
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  // The last attempt may start just inside the budget and spend its own
  // 15 ms, but no backoff pause ever extends past the deadline.
  EXPECT_LE(clock.Now() - start, policy.deadline + 15 * kMillisecond);
}

TEST(RetryerTest, BackoffCurveGrowsAndCaps) {
  SimClock clock;
  RetryPolicy policy;
  policy.initial_backoff = 10 * kMillisecond;
  policy.multiplier = 2.0;
  policy.max_backoff = 50 * kMillisecond;
  Retryer retryer(policy, clock);
  EXPECT_EQ(retryer.BackoffFor(1), 10 * kMillisecond);
  EXPECT_EQ(retryer.BackoffFor(2), 20 * kMillisecond);
  EXPECT_EQ(retryer.BackoffFor(3), 40 * kMillisecond);
  EXPECT_EQ(retryer.BackoffFor(4), 50 * kMillisecond);  // capped
  EXPECT_EQ(retryer.BackoffFor(10), 50 * kMillisecond);
}

// ------------------------------------------------------------ CircuitBreaker

TEST(CircuitBreakerTest, OpensAfterThresholdAndProbesAfterCooldown) {
  SimClock clock;
  BreakerPolicy policy;
  policy.failure_threshold = 3;
  policy.open_for = kSecond;
  CircuitBreaker breaker(policy, clock);

  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(breaker.Allow());
    breaker.RecordFailure();
  }
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.opens(), 1u);
  EXPECT_FALSE(breaker.Allow());  // rejected while open
  EXPECT_EQ(breaker.rejections(), 1u);

  clock.Advance(kSecond + 1);
  EXPECT_TRUE(breaker.Allow());  // cooldown elapsed: half-open probe
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  EXPECT_FALSE(breaker.Allow());  // only one probe admitted
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_TRUE(breaker.Allow());
}

TEST(CircuitBreakerTest, HalfOpenFailureReopens) {
  SimClock clock;
  BreakerPolicy policy;
  policy.failure_threshold = 2;
  policy.open_for = kSecond;
  CircuitBreaker breaker(policy, clock);
  breaker.RecordFailure();
  breaker.RecordFailure();
  ASSERT_EQ(breaker.state(), BreakerState::kOpen);

  clock.Advance(kSecond + 1);
  ASSERT_TRUE(breaker.Allow());
  breaker.RecordFailure();  // the probe failed
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.opens(), 2u);
  EXPECT_FALSE(breaker.Allow());  // cooldown restarted
  clock.Advance(kSecond + 1);
  EXPECT_TRUE(breaker.Allow());
}

TEST(CircuitBreakerTest, SuccessResetsFailureStreak) {
  SimClock clock;
  BreakerPolicy policy;
  policy.failure_threshold = 3;
  CircuitBreaker breaker(policy, clock);
  breaker.RecordFailure();
  breaker.RecordFailure();
  breaker.RecordSuccess();  // streak broken
  breaker.RecordFailure();
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
}

// ------------------------------------------------------------- ReplayBuffer

TEST(ReplayBufferTest, DropsOldestWhenFull) {
  ReplayBuffer<int> buffer(3);
  EXPECT_TRUE(buffer.Push(1));
  EXPECT_TRUE(buffer.Push(2));
  EXPECT_TRUE(buffer.Push(3));
  EXPECT_FALSE(buffer.Push(4));  // evicts 1
  EXPECT_FALSE(buffer.Push(5));  // evicts 2
  EXPECT_EQ(buffer.dropped(), 2u);
  ASSERT_EQ(buffer.size(), 3u);
  EXPECT_EQ(*buffer.Pop(), 3);
  EXPECT_EQ(*buffer.Pop(), 4);
  EXPECT_EQ(*buffer.Pop(), 5);
  EXPECT_TRUE(buffer.empty());
}

TEST(ReplayBufferTest, ShrinkingCapacityEvicts) {
  ReplayBuffer<int> buffer(4);
  for (int i = 1; i <= 4; ++i) buffer.Push(i);
  buffer.set_capacity(2);
  EXPECT_EQ(buffer.size(), 2u);
  EXPECT_EQ(buffer.dropped(), 2u);
  EXPECT_EQ(*buffer.Pop(), 3);
}

// ---------------------------------------------------------------- FaultPlan

TEST(FaultPlanTest, SameSeedSameDecisionStream) {
  FaultSpec spec;
  spec.seed = 42;
  spec.drop_rate = 0.3;
  spec.duplicate_rate = 0.1;
  FaultPlan a(spec);
  FaultPlan b(spec);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(a.OnSend(), b.OnSend()) << "diverged at send " << i;
  }
}

TEST(FaultPlanTest, ExplicitIndicesOverrideRandomLayer) {
  FaultSpec spec;
  spec.drop_rate = 0;  // random layer silent
  spec.drop_at = {2};
  spec.duplicate_at = {3};
  FaultPlan plan(spec);
  EXPECT_EQ(plan.OnSend(), FaultOp::kPass);
  EXPECT_EQ(plan.OnSend(), FaultOp::kDrop);
  EXPECT_EQ(plan.OnSend(), FaultOp::kDuplicate);
  EXPECT_EQ(plan.OnSend(), FaultOp::kPass);
  EXPECT_EQ(plan.sends_seen(), 4u);
}

// ------------------------------------------------------------- FaultyChannel

TEST(FaultyChannelTest, DropsAndDuplicatesOnSchedule) {
  auto [near_end, far_end] = transport::MakeChannelPair();
  FaultSpec spec;
  spec.drop_at = {2};
  spec.duplicate_at = {3};
  auto faulty = WrapWithFaults(std::move(near_end), spec);

  ASSERT_TRUE(faulty->Send({"t", "one"}).ok());
  ASSERT_TRUE(faulty->Send({"t", "two"}).ok());  // dropped, sender unaware
  ASSERT_TRUE(faulty->Send({"t", "three"}).ok());  // duplicated

  std::vector<std::string> seen;
  while (auto msg = far_end->TryReceive()) seen.push_back(msg->payload);
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], "one");
  EXPECT_EQ(seen[1], "three");
  EXPECT_EQ(seen[2], "three");
}

TEST(FaultyChannelTest, DisconnectSeversBothSides) {
  auto [near_end, far_end] = transport::MakeChannelPair();
  FaultSpec spec;
  spec.disconnect_at = 2;
  auto faulty = WrapWithFaults(std::move(near_end), spec);

  ASSERT_TRUE(faulty->Send({"t", "one"}).ok());
  Status severed = faulty->Send({"t", "two"});
  EXPECT_EQ(severed.code(), StatusCode::kUnavailable);
  EXPECT_FALSE(faulty->IsOpen());
  // The peer drains what was delivered, then sees the close.
  ASSERT_TRUE(far_end->TryReceive().has_value());
  EXPECT_EQ(far_end->Receive(0).status().code(), StatusCode::kUnavailable);
}

TEST(FaultyChannelTest, DelayHoldsMessagesUntilClockAdvances) {
  SimClock clock;
  auto [near_end, far_end] = transport::MakeChannelPair();
  FaultSpec spec;
  spec.min_delay = 100 * kMillisecond;
  spec.max_delay = 100 * kMillisecond;
  FaultyChannel delayed(std::move(far_end), std::make_shared<FaultPlan>(spec),
                        &clock);

  ASSERT_TRUE(near_end->Send({"t", "late"}).ok());
  // Arrived on the wire but not yet visible on the injected clock.
  auto early = delayed.Receive(0);
  EXPECT_EQ(early.status().code(), StatusCode::kTimeout);
  EXPECT_FALSE(delayed.TryReceive().has_value());

  clock.Advance(100 * kMillisecond);
  auto msg = delayed.Receive(0);
  ASSERT_TRUE(msg.ok());
  EXPECT_EQ(msg->payload, "late");
}

// ------------------------------------------------------------ CrashSchedule

TEST(CrashScheduleTest, DeterministicAndAlternating) {
  CrashSchedule a(7, 10 * kSecond, 2 * kSecond);
  CrashSchedule b(7, 10 * kSecond, 2 * kSecond);
  EXPECT_TRUE(a.AliveAt(0));
  bool saw_down = false;
  for (TimePoint t = 0; t < 5 * kMinute; t += 500 * kMillisecond) {
    ASSERT_EQ(a.AliveAt(t), b.AliveAt(t)) << "diverged at t=" << t;
    if (!a.AliveAt(t)) saw_down = true;
  }
  EXPECT_TRUE(saw_down);  // with mean uptime 10s, 5 minutes sees crashes

  // State genuinely flips at each reported transition.
  TimePoint t = 0;
  for (int i = 0; i < 6; ++i) {
    const TimePoint next = a.NextTransitionAfter(t);
    ASSERT_GT(next, t);
    EXPECT_NE(a.AliveAt(next), a.AliveAt(next - 1));
    t = next;
  }
}

// ---------------------------------------------- GatewayClient regressions

// Satellite: WaitFor used to re-apply the full timeout on every Receive,
// so interleaved event traffic pushed a control call's deadline out
// indefinitely. With events arriving every 50 ms and a 200 ms timeout the
// old code blocked until the feeder stopped (~2 s); the fix turns the
// timeout into an absolute deadline.
TEST(GatewayClientRegressionTest, ControlTimeoutIsAnAbsoluteDeadline) {
  auto [client_end, server_end] = transport::MakeChannelPair();
  gateway::GatewayClient client(std::move(client_end));

  std::atomic<bool> stop{false};
  std::thread feeder([&] {
    const std::string event = test::Ascii(ValueEvent(1, "CPU", 42));
    for (int i = 0; i < 40 && !stop.load(); ++i) {
      (void)server_end->Send({transport::kEventMessageType, event});
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  });

  const auto start = std::chrono::steady_clock::now();
  auto reply = client.Query("CPU", 200 * kMillisecond);  // never answered
  const auto elapsed = std::chrono::steady_clock::now() - start;
  stop.store(true);
  feeder.join();

  EXPECT_EQ(reply.status().code(), StatusCode::kTimeout);
  EXPECT_LT(elapsed, std::chrono::seconds(1))
      << "interleaved events must not reset the control deadline";
  // The events that interleaved with the wait were buffered, not lost.
  EXPECT_FALSE(client.DrainEvents().empty());
}

// Satellite: NextEvent used to return Internal ("expected event, got
// gw.ok") when a stale control reply — e.g. a late gw.ok after a timed-out
// call — interleaved with the stream, poisoning the consumer. Stale
// replies are now skipped; only gw.error surfaces.
TEST(GatewayClientRegressionTest, StaleControlReplyDoesNotPoisonStream) {
  auto [client_end, server_end] = transport::MakeChannelPair();
  gateway::GatewayClient client(std::move(client_end));

  ASSERT_TRUE(server_end->Send({"gw.ok", "sub-stale"}).ok());
  ASSERT_TRUE(server_end->Send({"gw.query.reply",
                                test::Ascii(ValueEvent(1, "X", 1))}).ok());
  ASSERT_TRUE(server_end
                  ->Send({transport::kEventMessageType,
                          test::Ascii(ValueEvent(2, "CPU", 42))})
                  .ok());

  auto event = client.NextEvent(kSecond);
  ASSERT_TRUE(event.ok()) << event.status().ToString();
  EXPECT_EQ(event->event_name(), "CPU");
}

TEST(GatewayClientRegressionTest, GatewayErrorStillSurfaces) {
  auto [client_end, server_end] = transport::MakeChannelPair();
  gateway::GatewayClient client(std::move(client_end));
  ASSERT_TRUE(server_end->Send({"gw.error", "subscription revoked"}).ok());
  auto event = client.NextEvent(kSecond);
  EXPECT_EQ(event.status().code(), StatusCode::kInternal);
}

// Satellite: pending_events_ is now bounded; a control call on a busy
// subscription cannot run the client out of memory, and losses are counted.
TEST(GatewayClientRegressionTest, PendingEventBufferIsBounded) {
  auto [client_end, server_end] = transport::MakeChannelPair();
  gateway::GatewayClient client(std::move(client_end));
  client.set_pending_capacity(4);

  for (int i = 1; i <= 10; ++i) {
    ASSERT_TRUE(server_end
                    ->Send({transport::kEventMessageType,
                            test::Ascii(ValueEvent(i, "CPU", i))})
                    .ok());
  }
  ASSERT_TRUE(server_end->Send({"gw.query.reply",
                                test::Ascii(ValueEvent(99, "Q", 9))}).ok());

  auto reply = client.Query("Q", kSecond);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(client.pending_dropped(), 6u);
  const ulm::FlatBatch& kept = client.DrainEvents();
  ASSERT_EQ(kept.size(), 4u);
  // Oldest were evicted; the newest survive.
  EXPECT_EQ(kept.View(0).timestamp(), 7);
  EXPECT_EQ(kept.View(3).timestamp(), 10);
}

// -------------------------------------------- Gateway reconnect (tentpole)

// Acceptance: kill the gateway mid-stream; the dialer-backed client
// reconnects, replays its subscription, and receives events again with no
// manual intervention.
TEST(GatewayReconnectTest, ClientSurvivesGatewayCrash) {
  SimClock clock;
  transport::InProcNetwork net;

  auto gw = std::make_unique<gateway::EventGateway>("gw", clock);
  auto listener = net.Listen("gw");
  ASSERT_TRUE(listener.ok());
  auto service =
      std::make_unique<gateway::GatewayService>(*gw, std::move(*listener));

  gateway::GatewayClient client([&net] { return net.Dial("gw"); });
  ASSERT_TRUE(client.SubscribeAsync("collector", {}).ok());
  service->PollOnce();  // accept + subscribe → gw.ok queued

  test::Publish(*gw, ValueEvent(1, "CPU", 10));
  auto first = client.NextEvent(kSecond);  // adopts gw.ok, then the event
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->event_name(), "CPU");
  ASSERT_EQ(client.recorded_subscription_count(), 1u);
  EXPECT_FALSE(client.subscription_id(0).empty());
  const std::string first_sub_id = client.subscription_id(0);

  // Crash: the service and its gateway die; every channel closes.
  service.reset();
  gw.reset();
  auto while_down = client.NextEvent(50 * kMillisecond);
  EXPECT_EQ(while_down.status().code(), StatusCode::kUnavailable);
  EXPECT_FALSE(client.connected());

  // Revive at the same address.
  gw = std::make_unique<gateway::EventGateway>("gw", clock);
  listener = net.Listen("gw");
  ASSERT_TRUE(listener.ok());
  service =
      std::make_unique<gateway::GatewayService>(*gw, std::move(*listener));

  // DrainEvents re-dials and replays the subscription without blocking...
  EXPECT_TRUE(client.DrainEvents().empty());
  EXPECT_TRUE(client.connected());
  service->PollOnce();  // ...the revived gateway accepts and resubscribes
  EXPECT_EQ(gw->subscription_count(), 1u);

  test::Publish(*gw, ValueEvent(2, "CPU", 20));
  auto second = client.NextEvent(kSecond);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->event_name(), "CPU");
  auto value = second->View().GetDouble(ulm::InternSymbol("VAL"));
  ASSERT_TRUE(value.ok());
  EXPECT_DOUBLE_EQ(*value, 20);
  // A fresh subscription id was adopted from the replayed subscribe.
  EXPECT_FALSE(client.subscription_id(0).empty());
  EXPECT_NE(client.subscription_id(0), first_sub_id);
}

// ------------------------------------------------ Consumers over a crash

TEST(ConsumerResilienceTest, ArchiverBuffersAcrossGatewayOutage) {
  SimClock clock;
  transport::InProcNetwork net;

  auto gw = std::make_unique<gateway::EventGateway>("gw", clock);
  auto listener = net.Listen("gw");
  ASSERT_TRUE(listener.ok());
  auto service =
      std::make_unique<gateway::GatewayService>(*gw, std::move(*listener));

  archive::EventArchive archive("arch");
  consumers::ArchiverAgent archiver("arch", archive);
  ASSERT_TRUE(archiver
                  .AttachRemote(std::make_unique<gateway::GatewayClient>(
                                    [&net] { return net.Dial("gw"); }),
                                {})
                  .ok());
  service->PollOnce();

  test::Publish(*gw, ValueEvent(1, "CPU", 10));
  test::Publish(*gw, ValueEvent(2, "CPU", 20));
  EXPECT_EQ(archiver.PumpRemote(), 2u);
  EXPECT_EQ(archive.size(), 2u);

  // Outage: pumping while down ingests nothing and does not wedge.
  service.reset();
  gw.reset();
  EXPECT_EQ(archiver.PumpRemote(), 0u);

  // Revival: the embedded client re-dials and resubscribes on the next
  // pump; events flow into the archive again.
  gw = std::make_unique<gateway::EventGateway>("gw", clock);
  listener = net.Listen("gw");
  ASSERT_TRUE(listener.ok());
  service =
      std::make_unique<gateway::GatewayService>(*gw, std::move(*listener));
  EXPECT_EQ(archiver.PumpRemote(), 0u);  // reconnect + replay subscribe
  service->PollOnce();
  test::Publish(*gw, ValueEvent(3, "CPU", 30));
  EXPECT_EQ(archiver.PumpRemote(), 1u);
  EXPECT_EQ(archive.size(), 3u);
  EXPECT_EQ(archiver.remote_dropped(), 0u);
}

TEST(ConsumerResilienceTest, CollectorRemoteFeedCollects) {
  SimClock clock;
  transport::InProcNetwork net;
  gateway::EventGateway gw("gw", clock);
  auto listener = net.Listen("gw");
  ASSERT_TRUE(listener.ok());
  gateway::GatewayService service(gw, std::move(*listener));

  consumers::EventCollector collector("coll", nullptr);
  ASSERT_TRUE(collector
                  .AttachRemote(std::make_unique<gateway::GatewayClient>(
                                    [&net] { return net.Dial("gw"); }),
                                {})
                  .ok());
  service.PollOnce();
  test::Publish(gw, ValueEvent(2, "B", 2));
  test::Publish(gw, ValueEvent(1, "A", 1));
  EXPECT_EQ(collector.PumpRemote(), 2u);
  auto merged = collector.Merged();
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged.View(0).event_name(), "A");  // time-merged for nlv
}

TEST(ConsumerResilienceTest, CollectorBatchedRemoteFeedCollects) {
  // ISSUE 3: a collector attached with batch_records > 0 negotiates
  // gw.event.batch delivery; the embedded client unpacks frames so the
  // collector sees individual records, and a reconnect replays the SAME
  // batched format.
  SimClock clock;
  transport::InProcNetwork net;
  auto gw = std::make_unique<gateway::EventGateway>("gw", clock);
  auto listener = net.Listen("gw");
  ASSERT_TRUE(listener.ok());
  auto service =
      std::make_unique<gateway::GatewayService>(*gw, std::move(*listener));

  consumers::EventCollector collector("coll", nullptr);
  ASSERT_TRUE(collector
                  .AttachRemote(std::make_unique<gateway::GatewayClient>(
                                    [&net] { return net.Dial("gw"); }),
                                {}, /*batch_records=*/3)
                  .ok());
  service->PollOnce();
  for (int i = 0; i < 3; ++i) test::Publish(*gw, ValueEvent(i + 1, "CPU", i));
  EXPECT_EQ(collector.PumpRemote(), 3u);  // one frame, three records
  EXPECT_EQ(collector.Merged().size(), 3u);

  // Crash + revive: the replayed subscription is still batched.
  service.reset();
  gw.reset();
  EXPECT_EQ(collector.PumpRemote(), 0u);
  gw = std::make_unique<gateway::EventGateway>("gw", clock);
  listener = net.Listen("gw");
  ASSERT_TRUE(listener.ok());
  service =
      std::make_unique<gateway::GatewayService>(*gw, std::move(*listener));
  EXPECT_EQ(collector.PumpRemote(), 0u);  // re-dial + replay subscribe
  service->PollOnce();
  for (int i = 0; i < 3; ++i) test::Publish(*gw, ValueEvent(i + 10, "CPU", i));
  EXPECT_EQ(collector.PumpRemote(), 3u);
  EXPECT_EQ(collector.Merged().size(), 6u);
}

// --------------------------------------------- Directory write failover

directory::Dn MustParse(const std::string& text) {
  auto dn = directory::Dn::Parse(text);
  EXPECT_TRUE(dn.ok()) << text;
  return *dn;
}

// Acceptance: writes keep succeeding while the primary is down, and the
// revived (now stale) primary reconverges by syncing from the promoted
// server via Replicator::SyncAll.
TEST(DirectoryFailoverTest, RevivedPrimaryReconvergesFromPromotedServer) {
  const directory::Dn suffix = MustParse("ou=sensors, o=jamm");
  auto primary =
      std::make_shared<directory::DirectoryServer>(suffix, "ldap://primary");
  auto replica =
      std::make_shared<directory::DirectoryServer>(suffix, "ldap://replica");

  directory::Replicator forward(primary);
  forward.AddReplica(replica);
  directory::DirectoryPool pool;
  pool.AddServer(primary);
  pool.AddServer(replica);

  ASSERT_TRUE(pool.Upsert(directory::schema::MakeHostEntry(suffix, "h1")).ok());
  ASSERT_EQ(forward.SyncAll(), 1u);
  EXPECT_EQ(pool.write_primary(), "ldap://primary");

  // Primary dies; the write lands on the replica, which is promoted.
  primary->SetAlive(false);
  ASSERT_TRUE(pool.Upsert(directory::schema::MakeHostEntry(suffix, "h2")).ok());
  EXPECT_EQ(pool.write_primary(), "ldap://replica");
  ASSERT_TRUE(pool.Upsert(directory::schema::MakeHostEntry(suffix, "h3")).ok());

  // The primary revives stale: it never saw h2/h3. A Replicator rooted at
  // the promoted server pushes the missed changes back.
  primary->SetAlive(true);
  EXPECT_FALSE(primary->Lookup(directory::schema::HostDn(suffix, "h2")).ok());
  directory::Replicator reverse(replica);
  reverse.AddReplica(primary);
  EXPECT_GE(reverse.SyncAll(), 2u);
  EXPECT_TRUE(reverse.Converged());
  EXPECT_TRUE(primary->Lookup(directory::schema::HostDn(suffix, "h2")).ok());
  EXPECT_TRUE(primary->Lookup(directory::schema::HostDn(suffix, "h3")).ok());

  // Writes stick with the promoted server even after the old primary is
  // back (no flapping); reads may be served by anyone alive.
  ASSERT_TRUE(pool.Upsert(directory::schema::MakeHostEntry(suffix, "h4")).ok());
  EXPECT_EQ(pool.write_primary(), "ldap://replica");
}

TEST(DirectoryFailoverTest, BreakersSkipServersThatKeepFailing) {
  SimClock clock;
  const directory::Dn suffix = MustParse("ou=sensors, o=jamm");
  auto primary =
      std::make_shared<directory::DirectoryServer>(suffix, "ldap://primary");
  auto replica =
      std::make_shared<directory::DirectoryServer>(suffix, "ldap://replica");
  directory::DirectoryPool pool;
  pool.AddServer(primary);
  pool.AddServer(replica);
  resilience::BreakerPolicy policy;
  policy.failure_threshold = 2;
  policy.open_for = 10 * kSecond;
  pool.SetBreakerPolicy(policy, clock);

  primary->SetAlive(false);
  // Two failed probes trip the primary's breaker; later ops skip straight
  // to the replica without touching the corpse.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        pool.Upsert(directory::schema::MakeHostEntry(
                        suffix, "h" + std::to_string(i)))
            .ok());
  }
  EXPECT_EQ(pool.write_primary(), "ldap://replica");

  // After the cooldown the primary is probed again and, being alive,
  // serves reads once more.
  primary->SetAlive(true);
  directory::Replicator reverse(replica);
  reverse.AddReplica(primary);
  (void)reverse.SyncAll();
  clock.Advance(11 * kSecond);
  ASSERT_TRUE(pool.Lookup(directory::schema::HostDn(suffix, "h0")).ok());
  EXPECT_EQ(pool.last_served_by(), "ldap://primary");
}

// Satellite: Replicator convergence when a replica dies and revives
// mid-sync, on a seeded CrashSchedule.
TEST(DirectoryFailoverTest, ReplicaCrashScheduleStillConverges) {
  const directory::Dn suffix = MustParse("ou=sensors, o=jamm");
  auto primary =
      std::make_shared<directory::DirectoryServer>(suffix, "ldap://primary");
  auto replica =
      std::make_shared<directory::DirectoryServer>(suffix, "ldap://replica");
  directory::Replicator replicator(primary);
  replicator.AddReplica(replica);

  CrashSchedule schedule(11, 5 * kSecond, 3 * kSecond);
  bool saw_down_sync = false;
  for (int tick = 0; tick < 100; ++tick) {
    const TimePoint t = tick * kSecond;
    replica->SetAlive(schedule.AliveAt(t));
    ASSERT_TRUE(primary
                    ->Upsert(directory::schema::MakeHostEntry(
                        suffix, "h" + std::to_string(tick)))
                    .ok());
    if (tick % 3 == 0) {
      if (!replica->alive()) saw_down_sync = true;
      (void)replicator.SyncAll();
    }
  }
  ASSERT_TRUE(saw_down_sync) << "schedule never crashed the replica mid-sync";
  replica->SetAlive(true);
  (void)replicator.SyncAll();
  EXPECT_TRUE(replicator.Converged());
  auto all = replica->Search(suffix, directory::SearchScope::kSubtree,
                             directory::Filter::MatchAll());
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->entries.size(), 100u);
}

// ----------------------------------------------------------- RpcClient retry

TEST(RpcRetryTest, CallSurvivesSeveredConnection) {
  rpc::Registry registry(SystemClock::Instance());
  ASSERT_TRUE(registry.RegisterActivatable("echo", []() {
    auto obj = std::make_unique<rpc::MethodTableObject>();
    obj->Register("echo", [](const std::vector<std::string>& args) {
      return Result<std::string>(args.empty() ? "" : args[0]);
    });
    return obj;
  }).ok());

  transport::InProcNetwork net;
  auto listener = net.Listen("rpc");
  ASSERT_TRUE(listener.ok());
  rpc::RpcServer server(registry, std::move(*listener));
  std::atomic<bool> stop{false};
  std::thread pump([&] {
    while (!stop.load()) {
      server.PollOnce();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  // The first dialed channel severs the connection on its very first
  // send; every later dial is clean. The retry layer re-dials and the
  // call completes without the caller seeing the fault.
  int dials = 0;
  resilience::RetryPolicy policy;
  policy.initial_backoff = kMillisecond;
  rpc::RpcClient client(
      [&net, &dials]() -> Result<std::unique_ptr<transport::Channel>> {
        auto channel = net.Dial("rpc");
        if (!channel.ok()) return channel.status();
        if (++dials == 1) {
          FaultSpec spec;
          spec.disconnect_at = 1;
          return WrapWithFaults(std::move(*channel), spec);
        }
        return std::move(*channel);
      },
      policy);

  auto result = client.Call("echo", "echo", {"hello"}, kSecond);
  stop.store(true);
  pump.join();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(*result, "hello");
  EXPECT_EQ(dials, 2);
}

// --------------------------------------------------------------- Supervisor

TEST(SupervisorTest, FirstFailureRestartsImmediately) {
  SimClock clock(0);
  Supervisor sup({}, clock);
  auto decision = sup.OnFailure();
  EXPECT_EQ(decision.action, Supervisor::Action::kRestart);
  EXPECT_EQ(decision.restart_at, clock.Now());
  EXPECT_EQ(sup.restarts_granted(), 1u);
}

TEST(SupervisorTest, BackoffGrowsExponentiallyAndCaps) {
  SimClock clock(0);
  SupervisorPolicy policy;
  policy.initial_backoff = kSecond;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff = 4 * kSecond;
  policy.max_restarts = 100;  // keep quarantine out of the way
  policy.window = 1000 * kSecond;
  Supervisor sup(policy, clock);
  // Failure n in the streak waits initial × multiplier^(n-2), capped.
  EXPECT_EQ(sup.OnFailure().restart_at, clock.Now());            // immediate
  EXPECT_EQ(sup.OnFailure().restart_at, clock.Now() + kSecond);  // 1 s
  EXPECT_EQ(sup.OnFailure().restart_at, clock.Now() + 2 * kSecond);
  EXPECT_EQ(sup.OnFailure().restart_at, clock.Now() + 4 * kSecond);
  EXPECT_EQ(sup.OnFailure().restart_at, clock.Now() + 4 * kSecond);  // capped
}

TEST(SupervisorTest, QuarantinesAfterMaxRestartsInWindow) {
  SimClock clock(0);
  SupervisorPolicy policy;
  policy.max_restarts = 3;
  policy.window = kMinute;
  Supervisor sup(policy, clock);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(sup.OnFailure().action, Supervisor::Action::kRestart);
    clock.Advance(kSecond);
  }
  EXPECT_EQ(sup.OnFailure().action, Supervisor::Action::kQuarantine);
  EXPECT_TRUE(sup.quarantined());
  EXPECT_EQ(sup.quarantines(), 1u);
  // Once quarantined, every further failure stays quarantined.
  EXPECT_EQ(sup.OnFailure().action, Supervisor::Action::kQuarantine);
}

TEST(SupervisorTest, OldFailuresSlideOutOfWindow) {
  SimClock clock(0);
  SupervisorPolicy policy;
  policy.max_restarts = 2;
  policy.window = 10 * kSecond;
  Supervisor sup(policy, clock);
  // Failures spaced wider than the window never accumulate.
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(sup.OnFailure().action, Supervisor::Action::kRestart);
    clock.Advance(11 * kSecond);
  }
  EXPECT_FALSE(sup.quarantined());
}

TEST(SupervisorTest, OnSuccessClearsStreakButNotQuarantine) {
  SimClock clock(0);
  SupervisorPolicy policy;
  policy.max_restarts = 2;
  policy.window = kMinute;
  Supervisor sup(policy, clock);
  (void)sup.OnFailure();
  (void)sup.OnFailure();
  sup.OnSuccess();
  EXPECT_EQ(sup.failures_in_window(), 0);
  // The streak restarts from "immediate" after a healthy run.
  EXPECT_EQ(sup.OnFailure().restart_at, clock.Now());

  (void)sup.OnFailure();
  ASSERT_EQ(sup.OnFailure().action, Supervisor::Action::kQuarantine);
  sup.OnSuccess();
  EXPECT_TRUE(sup.quarantined());  // success does not lift quarantine
  sup.Reset();
  EXPECT_FALSE(sup.quarantined());
  EXPECT_EQ(sup.OnFailure().action, Supervisor::Action::kRestart);
}

// Regression (ISSUE 6 satellite): a federation republisher's feed
// subscriptions carry every line of the subscribe payload — consumer,
// filter spec, wire format, queue spec. The reconnect replay must
// preserve all four, including for a subscription issued while the
// downstream was DOWN (which used to be silently dropped from the replay
// set because the failed send returned before recording it).
TEST(GatewayReconnectTest, ReplayPreservesEverySubscriptionLine) {
  SimClock clock;
  transport::InProcNetwork net;

  gateway::GatewayClient client([&net] { return net.Dial("gw"); });
  client.SetQueueSpec(gateway::OverflowPolicy::kDropNewest, 7);
  auto spec = gateway::FilterSpec::Parse("all|CPU*");
  ASSERT_TRUE(spec.ok());
  // The gateway is not up yet: the send fails, but a dialer-backed client
  // must record the subscription for replay.
  EXPECT_TRUE(
      client.SubscribeBatchedAsync("site/all|CPU*", *spec, 32).ok());
  EXPECT_EQ(client.recorded_subscription_count(), 1u);

  auto check_all_lines = [&](gateway::EventGateway& gw,
                             gateway::GatewayService& service,
                             TimePoint base_ts) {
    EXPECT_EQ(gw.subscription_count(), 1u);
    test::Publish(gw, ValueEvent(base_ts, "MEM", 5));  // must be filtered out
    test::Publish(gw, ValueEvent(base_ts + 1, "CPU", 10));
    test::Publish(gw, ValueEvent(base_ts + 2, "CPU", 20));
    test::Publish(gw, ValueEvent(base_ts + 3, "CPU", 30));
    clock.Advance(100 * kMillisecond);
    service.PollOnce();  // age-flush the partial batch
    auto queues = service.QueueStats();
    ASSERT_EQ(queues.size(), 1u);
    // Line 1 (consumer) and line 4 (queue spec).
    EXPECT_EQ(queues[0].consumer, "site/all|CPU*");
    EXPECT_EQ(queues[0].policy, gateway::OverflowPolicy::kDropNewest);
    // Line 3 (batch format): three records crossed as one batch frame.
    EXPECT_EQ(queues[0].sent_messages, 1u);
    EXPECT_EQ(queues[0].sent_records, 3u);
    // Line 2 (filter spec): MEM never reached the subscription.
    const ulm::FlatBatch& events = client.DrainEvents();
    ASSERT_EQ(events.size(), 3u);
    for (std::size_t e = 0; e < events.size(); ++e) {
      EXPECT_EQ(events.View(e).event_name(), "CPU");
    }
  };

  auto gw = std::make_unique<gateway::EventGateway>("gw", clock);
  auto listener = net.Listen("gw");
  ASSERT_TRUE(listener.ok());
  auto service =
      std::make_unique<gateway::GatewayService>(*gw, std::move(*listener));
  EXPECT_TRUE(client.DrainEvents().empty());  // dials + replays
  service->PollOnce();
  check_all_lines(*gw, *service, 1);

  // Crash and revive: the replay must repeat every line, not just the
  // consumer + spec.
  service.reset();
  gw.reset();
  gw = std::make_unique<gateway::EventGateway>("gw", clock);
  listener = net.Listen("gw");
  ASSERT_TRUE(listener.ok());
  service =
      std::make_unique<gateway::GatewayService>(*gw, std::move(*listener));
  EXPECT_TRUE(client.DrainEvents().empty());
  service->PollOnce();
  check_all_lines(*gw, *service, 100);
}

// Regression: Unsubscribe("") used to match every not-yet-adopted
// subscription (their placeholder ids are empty) and wipe them from the
// replay set.
TEST(GatewayReconnectTest, EmptyUnsubscribeDoesNotWipeReplaySet) {
  transport::InProcNetwork net;
  gateway::GatewayClient client([&net] { return net.Dial("gw"); });
  EXPECT_TRUE(client.SubscribeAsync("collector", {}).ok());
  EXPECT_EQ(client.recorded_subscription_count(), 1u);  // id not yet adopted
  EXPECT_FALSE(client.Unsubscribe("").ok());
  EXPECT_EQ(client.recorded_subscription_count(), 1u);
}

TEST(ReplayBufferTest, EvictionsSurfaceInTelemetry) {
  auto& counter =
      telemetry::Metrics().counter("resilience.replay_buffer.evictions");
  const std::uint64_t before = counter.Value();
  ReplayBuffer<int> buffer(2);
  buffer.Push(1);
  buffer.Push(2);
  buffer.Push(3);            // evicts 1
  buffer.set_capacity(1);    // evicts 2
  EXPECT_EQ(counter.Value(), before + 2);
}

}  // namespace
}  // namespace jamm::resilience
