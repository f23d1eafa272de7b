package ciscolog

import (
	"reflect"
	"strings"
	"testing"
)

// FuzzParse feeds arbitrary log lines to the parser. Three properties:
// ParseLine must never panic; any line it accepts must survive an
// emit/re-parse round trip unchanged (modulo the assigned ID) — the
// idempotence the capture pipeline relies on when logs are re-collected;
// and on the canonical emitted form, the fast emit and parse paths must
// agree exactly with the fmt/strings reference implementations. (The
// fast parser may be stricter than the reference on non-canonical
// whitespace, so raw fuzz input is not held to acceptance parity.)
func FuzzParse(f *testing.F) {
	seeds := []string{
		"*Nov  1 10:00:25.004: %SYS-5-CONFIG_I: Configured from console by admin on vty0 (set lp 150)",
		"*Nov  1 10:00:25.004: %SYS-5-CONFIG_I: Configured from console by admin on vty0 ()",
		"*Nov  1 10:00:00.120: %BGP-5-SOFTRECONFIG: inbound soft reconfiguration started",
		"*Nov  1 10:00:01.000: %LINEPROTO-5-UPDOWN: Line protocol on Interface eth-r2, changed state to up",
		"*Nov  1 10:00:01.000: %LINEPROTO-5-UPDOWN: Line protocol on Interface eth-r2, changed state to down",
		"*Nov  1 10:02:13.500: BGP(0): 10.0.0.2 rcvd UPDATE about 203.0.113.0/24, next hop 10.0.0.2, localpref 100, path 100 200",
		"*Nov  1 10:02:13.500: BGP(0): 10.0.0.2 send UPDATE about 203.0.113.0/24, next hop self, localpref 0, path local",
		"*Nov  1 10:02:14.000: BGP(0): 10.0.0.2 rcvd WITHDRAW about 203.0.113.0/24",
		"*Nov  1 10:02:14.000: BGP(0): 10.0.0.2 send WITHDRAW about 203.0.113.0/24",
		"*Nov  1 10:02:15.250: BGP(0): Revise route installing 203.0.113.0/24 -> 10.0.0.2 to main IP table",
		"*Nov  1 10:02:15.250: RIP(0): Revise route installing 198.51.100.0/24 -> self to main IP table",
		"*Nov  1 10:02:16.000: BGP(0): Revise route removing 203.0.113.0/24 from main IP table",
		"*Nov  1 10:02:17.125: %FIB-6-INSTALL: 203.0.113.0/24 via 10.0.0.2 installed in FIB (bgp)",
		"*Nov  1 10:02:17.125: %FIB-6-INSTALL: 10.255.0.1/32 via self installed in FIB (connected)",
		"*Nov  1 10:02:18.000: %FIB-6-REMOVE: 203.0.113.0/24 removed from FIB (bgp)",
		"*Nov  1 10:03:00.001: OSPF: rcv. LSU router-lsa 10.255.1.1 seq 3 from 10.0.1.2",
		"*Nov  1 10:03:00.001: OSPF: send LSU router-lsa 10.255.0.1 seq 4 to 10.0.1.1",
		"*Nov  1 10:03:30.750: EIGRP(0): 10.0.2.2 rcvd UPDATE about 10.255.3.1/32, next hop 10.0.2.2, localpref 0, path local",
		// Truncation hazards: lines cut mid-field must error, not panic.
		"*Nov  1 10:02:15.250: BGP(0): Revise route installing 203.0.113.0/24 -> ",
		"*Nov  1 10:02:16.000: BGP(0): Revise route removing ",
		"*Nov  1 10:02:13.500: BGP(0): 10.0.0.2 rcvd UPDATE about 203.0.113.0/24, next hop ",
		"*Nov  1 10:02:13.500: BGP(0): 10.0.0.2 rcvd UPDATE about 203.0.113.0/24, next hop 10.0.0.2, localpref ",
		"not a log line",
		"",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, line string) {
		p := NewParser(nil)
		io1, err := p.parse("r1", []byte(line))
		if err != nil {
			return // rejecting garbage is fine; panicking is not
		}
		emitted := string(AppendLine(nil, io1))
		if strings.ContainsRune(emitted, '\n') {
			t.Fatalf("AppendLine produced a multi-line record from %q: %q", line, emitted)
		}
		io2, err := NewParser(nil).parse("r1", []byte(emitted))
		if err != nil {
			t.Fatalf("re-parse of emitted line failed: %v\n  input:   %q\n  emitted: %q", err, line, emitted)
		}
		if refEmitted := ReferenceEmit(io1); refEmitted != emitted {
			t.Fatalf("fast emit diverged from reference:\n  fast: %q\n  ref:  %q", emitted, refEmitted)
		}
		io3, err := NewReferenceParser(nil).ParseLine("r1", emitted)
		if err != nil {
			t.Fatalf("reference re-parse of emitted line failed: %v\n  emitted: %q", err, emitted)
		}
		io1.ID, io2.ID, io3.ID = 0, 0, 0
		if !reflect.DeepEqual(io1, io2) {
			t.Fatalf("round trip not idempotent:\n  input:   %q\n  emitted: %q\n  first:  %+v\n  second: %+v",
				line, emitted, io1, io2)
		}
		if !reflect.DeepEqual(io2, io3) {
			t.Fatalf("fast parse diverged from reference on %q:\n  fast: %+v\n  ref:  %+v", emitted, io2, io3)
		}
	})
}
