// secure_monitoring — the paper's §7.1 security design in action:
//
//  * a CA issues X.509-style identity certificates (simulated PKI);
//  * gateway and directory consult ONE shared authorization interface
//    (the Akenti-style policy engine), per action;
//  * site policy: internal users get real-time streams, off-site users
//    only summary data; publishing needs the manager role (attribute
//    certificate); unknown identities are rejected outright;
//  * the sensor manager accepts connections only from its known gateway
//    certificates (the allowlist), demonstrated over a secure channel;
//  * a gridmap maps grid identities to local accounts.
#include <cstdio>
#include <thread>

#include "directory/replication.hpp"
#include "gateway/gateway.hpp"
#include "manager/sensor_manager.hpp"
#include "security/akenti.hpp"
#include "security/secure_channel.hpp"
#include "sensors/host_sensors.hpp"
#include "transport/inproc.hpp"

using namespace jamm;           // NOLINT: example brevity
using namespace jamm::security; // NOLINT

int main() {
  SimClock clock(kSecond);
  Rng rng(2000);

  // --- PKI -------------------------------------------------------------
  CertificateAuthority ca("/O=DOEGrids/CN=DOE Science Grid CA", rng);
  auto issue = [&](const std::string& subject) {
    KeyPair keys = GenerateKeyPair(rng);
    return std::make_pair(
        ca.IssueIdentity(subject, keys.public_key, 0, 1ll << 60), keys);
  };
  auto [alice_cert, alice_keys] = issue("/O=LBNL/CN=alice");      // internal
  auto [bob_cert, bob_keys] = issue("/O=NASA/CN=bob");            // off-site
  auto [admin_cert, admin_keys] = issue("/O=LBNL/CN=jamm-admin"); // operator
  auto [gw_cert, gw_keys] = issue("/O=LBNL/CN=gateway.dpss1");
  auto [mgr_cert, mgr_keys] = issue("/O=LBNL/CN=manager.dpss1");
  Certificate admin_attr = ca.IssueAttribute(
      "/O=LBNL/CN=jamm-admin", {{"role", "jamm-manager"}}, 0, 1ll << 60);

  // --- policy: the paper's "internal streams / off-site summaries" -----
  PolicyEngine policy;
  policy.AddUseCondition("gw.dpss1", {{action::kSubscribe, action::kQuery,
                                       action::kSummary, action::kLookup},
                                      "/O=LBNL/*", "", ""});
  policy.AddUseCondition("gw.dpss1",
                         {{action::kSummary, action::kLookup}, "*", "", ""});
  policy.AddUseCondition("gw.dpss1", {{action::kPublish, action::kStartSensor},
                                      "", "role", "jamm-manager"});
  Authorizer authorizer(policy, {ca.ca_certificate()}, clock);
  GridMap gridmap;
  gridmap.Add("/O=LBNL/CN=alice", "alice");
  gridmap.Add("/O=LBNL/CN=jamm-admin", "jamm");
  authorizer.SetGridMap(std::move(gridmap));

  // --- monitored host with guarded gateway + directory -----------------
  sysmon::SimHost host("dpss1.lbl.gov", clock);
  gateway::EventGateway gateway("gw.dpss1", clock);
  gateway.SetAccessChecker(authorizer.GatewayChecker("gw.dpss1"));
  gateway.EnableSummary("VMSTAT_SYS_TIME");

  auto suffix = *directory::Dn::Parse("ou=sensors, o=jamm");
  auto ldap = std::make_shared<directory::DirectoryServer>(suffix,
                                                           "ldap://lbl");
  ldap->SetAccessChecker(authorizer.DirectoryChecker("gw.dpss1"));
  directory::DirectoryPool pool;
  pool.AddServer(ldap);

  // The admin authenticates and starts the monitoring (publish rights via
  // the attribute certificate).
  auto admin_id = authorizer.Authenticate(admin_cert, {admin_attr});
  std::printf("admin authenticated as %s (local account: %s)\n",
              admin_id->c_str(),
              authorizer.LocalUser(*admin_id).value_or("?").c_str());

  manager::SensorManager::Options options;
  options.clock = &clock;
  options.host = &host;
  options.gateway = &gateway;
  options.directory = nullptr;  // publication shown manually below
  options.gateway_address = "gw.dpss1";
  manager::SensorManager manager(std::move(options));
  auto cfg = Config::ParseString(
      "[sensor]\nname = vmstat\nkind = vmstat\nmode = always\n");
  (void)manager.ApplyConfig(*cfg);
  (void)ldap->Upsert(directory::schema::MakeHostEntry(suffix,
                                                      "dpss1.lbl.gov"),
                     *admin_id);
  auto publish = directory::schema::MakeSensorEntry(
      suffix, "dpss1.lbl.gov", "vmstat", "cpu", "gw.dpss1", 1000,
      clock.Now());
  std::printf("admin publishes sensor entry: %s\n",
              ldap->Upsert(publish, *admin_id).ToString().c_str());

  host.SetBaseLoad(35, 55);
  for (int s = 0; s < 120; ++s) {
    manager.Tick();
    clock.Advance(kSecond);
  }

  // --- three users, three outcomes -------------------------------------
  auto alice = authorizer.Authenticate(alice_cert);
  auto bob = authorizer.Authenticate(bob_cert);
  std::printf("\nalice (internal) subscribe: %s\n",
              gateway
                      .SubscribeEncoded("alice", {},
                                        [](const ulm::EncodedRecord&) {},
                                        *alice)
                      .ok()
                  ? "ALLOWED"
                  : "denied");
  std::printf("bob (off-site)  subscribe: %s\n",
              gateway
                      .SubscribeEncoded("bob", {},
                                        [](const ulm::EncodedRecord&) {}, *bob)
                      .ok()
                  ? "allowed"
                  : "DENIED");
  auto bob_summary = gateway.GetSummary("VMSTAT_SYS_TIME", *bob);
  std::printf("bob (off-site)  summary  : %s",
              bob_summary.ok() ? "ALLOWED" : "denied");
  if (bob_summary.ok()) {
    std::printf("  (1m avg sys CPU = %.1f%%)", bob_summary->avg_1m);
  }
  std::printf("\n");
  std::printf("bob publish to directory : %s\n",
              ldap->Upsert(publish, *bob).ok() ? "allowed" : "DENIED");

  Rng rogue_rng(666);
  CertificateAuthority rogue("/O=Rogue/CN=CA", rogue_rng);
  KeyPair spy_keys = GenerateKeyPair(rogue_rng);
  Certificate spy_cert =
      rogue.IssueIdentity("/CN=spy", spy_keys.public_key, 0, 1ll << 60);
  std::printf("spy (rogue CA) authenticate: %s\n",
              authorizer.Authenticate(spy_cert).ok() ? "allowed"
                                                     : "REJECTED");

  // --- secure channel: manager ↔ gateway with an allowlist -------------
  std::printf("\n=== manager accepts only its known gateways (§7.1) ===\n");
  auto run_handshake = [&](const Certificate& peer_cert,
                           const KeyPair& peer_keys) {
    auto [m_raw, g_raw] = transport::MakeChannelPair();
    SecureChannelOptions m_opts;
    m_opts.local_cert = mgr_cert;
    m_opts.local_private_key = mgr_keys.private_key;
    m_opts.trusted_roots = {ca.ca_certificate()};
    m_opts.allowed_peers = {"/O=LBNL/CN=gateway.dpss1"};
    SecureChannel manager_side(std::move(m_raw), m_opts);

    SecureChannelOptions p_opts;
    p_opts.local_cert = peer_cert;
    p_opts.local_private_key = peer_keys.private_key;
    p_opts.trusted_roots = {ca.ca_certificate()};
    SecureChannel peer_side(std::move(g_raw), p_opts);

    Status peer_status;
    std::thread t([&] { peer_status = peer_side.Handshake(); });
    Status manager_status = manager_side.Handshake();
    t.join();
    return manager_status;
  };
  std::printf("gateway.dpss1 connects: %s\n",
              run_handshake(gw_cert, gw_keys).ok() ? "ACCEPTED" : "refused");
  std::printf("alice connects directly: %s\n",
              run_handshake(alice_cert, alice_keys).ok() ? "accepted"
                                                         : "REFUSED");
  return 0;
}
