package main

import (
	"testing"

	"asyncnoc/internal/cliflags/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, "loadsweep", main) }

// TestTopologyRejectsUnsupportedFlags: a mesh, which has one
// architecture and no die radix, rejects -networks and -n by name, and
// sweeps without them.
func TestTopologyRejectsUnsupportedFlags(t *testing.T) {
	for _, c := range []struct {
		args []string
		bad  string // "" = accepted
	}{
		{[]string{"-networks", "Baseline"}, "-networks"},
		{[]string{"-n", "32"}, "-n"},
		{[]string{"-points", "2", "-bench", "Multicast10", "-workers", "1"}, ""},
	} {
		args := append([]string{"-topology", "mesh:4x4"}, c.args...)
		stderr, code := clitest.Run(t, args...)
		if c.bad == "" {
			if code != 0 {
				t.Errorf("%v: exit %d, stderr %q", args, code, stderr)
			}
			continue
		}
		if want := "loadsweep: -topology mesh:4x4 does not support " + c.bad + "\n"; code == 0 || stderr != want {
			t.Errorf("%v: exit %d, stderr %q, want a failure with %q", args, code, stderr, want)
		}
	}
}
