package main

import (
	"strings"
	"testing"

	"asyncnoc/internal/cliflags/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, "experiments", main) }

// TestTopologyRejectsUnsupportedFlags: the chiplet hierarchy table names
// and rejects the suite's flags it cannot honour instead of ignoring
// them, and the suite rejects a mesh before simulating anything.
func TestTopologyRejectsUnsupportedFlags(t *testing.T) {
	for _, c := range []struct {
		args []string
		want []string
	}{
		{[]string{"-quick", "-n", "4", "-topology", "chiplet:2x2", "-util", "-faults", "-satloads"},
			[]string{"-topology chiplet:2x2", "-util", "-faults", "-satloads"}},
		{[]string{"-quick", "-n", "4", "-topology", "chiplet:2x2", "-util"}, []string{"-util"}},
		{[]string{"-quick", "-topology", "mesh:4x4"}, []string{"mesh:4x4 is not supported"}},
	} {
		stderr, code := clitest.Run(t, c.args...)
		if code == 0 {
			t.Errorf("%v exited 0, want a failure", c.args)
		}
		for _, w := range c.want {
			if !strings.Contains(stderr, w) {
				t.Errorf("%v: stderr %q does not name %q", c.args, stderr, w)
			}
		}
	}
}
