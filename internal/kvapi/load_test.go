package kvapi

import "testing"

// TestParseOpMixRejectsUnknown pins the load generator's mix parser on
// its error path: an unknown op name or a malformed weight is a usage
// error, not a silently dropped term.
func TestParseOpMixRejectsUnknown(t *testing.T) {
	for _, bad := range []string{"incr", "frob:50", "incr:x", "incr:-3", "incr:0,cget:0"} {
		if _, err := ParseOpMix(bad); err == nil {
			t.Errorf("ParseOpMix(%q) accepted", bad)
		}
	}
	mix, err := ParseOpMix("incr:70,cget:20,cas:10")
	if err != nil {
		t.Fatal(err)
	}
	if mix == nil {
		t.Fatal("valid mix parsed to nil")
	}
}
