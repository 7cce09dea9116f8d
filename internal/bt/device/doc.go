// Package device simulates the Bluetooth target devices of the L2Fuzz
// paper's testbed (Table V): complete BR/EDR hosts with vendor-flavoured
// L2CAP engines, service ports, pairing gates, an SDP server, and —
// crucially — the injected implementation defects that replicate the five
// zero-day vulnerabilities the paper discovered.
//
// Each Device couples a virtual HCI controller (internal/bt/hci) to a
// host stack whose per-channel behaviour follows the L2CAP state machine
// (internal/bt/sm) with vendor-specific deviations:
//
//   - BlueDroid and BlueZ perform lenient channel-control-block lookups
//     and tolerate stray responses (the paper notes some Android devices
//     accept events the specification says to reject);
//   - the iOS, Windows and BTW stacks validate strictly and reject
//     malformed input early — which is exactly why the paper found no
//     vulnerabilities in D4, D6 and D7.
//
// Vulnerabilities are data: a VulnSpec matches a (state, command,
// mutation) shape and fires a crash effect — Bluetooth service
// termination with an Android tombstone (D1/D2/D3), whole-device
// shutdown (D5), or a crash dump with a general-protection error (D8).
// Specs can be disabled per device so measurement experiments (Table VII,
// Figures 8-10) can run the full 100,000-packet workload without the
// target dying mid-measurement.
//
// Device identity is a first-class Spec: a target name plus a full
// Config plus expected-defect metadata. The Table V catalog is eight
// predefined Specs (CatalogSpecs); custom targets are any validated
// Spec, built in code or decoded from the human-written JSON form
// (DecodeSpec). Machines write a Spec as its Go struct JSON — journals,
// the proc worker wire and corpus entries all carry that exact form.
package device
