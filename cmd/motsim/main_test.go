package main

import (
	"testing"

	"asyncnoc/internal/cliflags/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, "motsim", main) }

// TestTopologyRejectsUnsupportedFlags: under a mesh or a chiplet
// composition, each flag the substrate cannot honour fails the command
// with an error naming it, and the flags it honours pass the check (-list
// then exits before simulating).
func TestTopologyRejectsUnsupportedFlags(t *testing.T) {
	for _, c := range []struct {
		topology string
		args     []string
		bad      string // "" = accepted
	}{
		{"mesh:4x4", []string{"-bench", "Multicast10", "-load", "0.3", "-strategy", "DPM", "-sat", "-workers", "1"}, ""},
		{"mesh:4x4", []string{"-network", "Baseline"}, "-network"},
		{"mesh:4x4", []string{"-n", "32"}, "-n"},
		{"mesh:4x4", []string{"-util"}, "-util"},
		{"mesh:4x4", []string{"-hist"}, ""},
		{"mesh:4x4", []string{"-draw"}, "-draw"},
		{"mesh:4x4", []string{"-vcd", "out.vcd"}, "-vcd"},
		{"mesh:4x4", []string{"-trace-out", "t.jsonl"}, ""},
		{"mesh:4x4", []string{"-dests", "1,2"}, "-dests"},
		{"mesh:4x4", []string{"-faults", "1e-2"}, "-faults"},
		{"mesh:4x4", []string{"-fault-drop", "1e-3"}, "-fault-drop"},
		{"mesh:4x4", []string{"-fault-seed", "7"}, "-fault-seed"},
		{"mesh:4x4", []string{"-fault-stuck", "0/1/0@5"}, "-fault-stuck"},
		{"mesh:4x4", []string{"-max-events", "1000"}, ""},
		{"chiplet:2x2", []string{"-n", "4", "-bench", "ChipletLocal", "-util", "-hist"}, ""},
		{"chiplet:2x2", []string{"-n", "4", "-dests", "1,2"}, "-dests"},
		{"chiplet:2x2", []string{"-n", "4", "-faults", "1e-2"}, "-faults"},
		{"chiplet:2x2", []string{"-n", "4", "-fault-seed", "7"}, "-fault-seed"},
		{"mot", []string{"-dests", "1,2", "-faults", "1e-2", "-util"}, ""},
	} {
		args := append([]string{"-topology", c.topology, "-list"}, c.args...)
		stderr, code := clitest.Run(t, args...)
		if c.bad == "" {
			if code != 0 {
				t.Errorf("%v: exit %d, stderr %q", args, code, stderr)
			}
			continue
		}
		if want := "motsim: -topology " + c.topology + " does not support " + c.bad + "\n"; code == 0 || stderr != want {
			t.Errorf("%v: exit %d, stderr %q, want a failure with %q", args, code, stderr, want)
		}
	}
}
