package cliflags

import (
	"flag"
	"io"
	"strings"
	"testing"
)

// motsimFlags registers the subset of motsim's flags the mesh check
// distinguishes.
func motsimFlags() *flag.FlagSet {
	fs := flag.NewFlagSet("motsim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.String("network", "OptHybridSpeculative", "")
	fs.Int("n", 8, "")
	fs.String("strategy", "", "")
	fs.String("bench", "UniformRandom", "")
	fs.Float64("load", 0.4, "")
	fs.Bool("sat", false, "")
	fs.String("dests", "", "")
	fs.String("trace-out", "", "")
	fs.Float64("faults", 0, "")
	fs.Float64("fault-drop", 0, "")
	fs.Uint64("fault-seed", 1, "")
	fs.String("fault-stuck", "", "")
	return fs
}

// TestMeshSpecFlags: a mesh run takes -strategy into its spec and
// rejects, by name, every set flag it cannot honour.
func TestMeshSpecFlags(t *testing.T) {
	sel := Topology{Kind: "mesh", W: 4, H: 4}
	for _, c := range []struct {
		args []string
		bad  string // "" = accepted
	}{
		{[]string{"-bench", "Multicast10", "-load", "0.3"}, ""},
		{[]string{"-strategy", "DPM"}, ""},
		{[]string{"-network", "Baseline"}, "-network"},
		{[]string{"-n", "32"}, "-n"},
		{[]string{"-faults", "1e-2"}, "-faults"},
		{[]string{"-fault-drop", "1e-3"}, "-fault-drop"},
		{[]string{"-fault-seed", "7"}, "-fault-seed"},
		{[]string{"-fault-stuck", "0/1/0@5"}, "-fault-stuck"},
		{[]string{"-sat"}, "-sat"},
		{[]string{"-dests", "1,2"}, "-dests"},
		{[]string{"-trace-out", "t.jsonl"}, "-trace-out"},
	} {
		fs := motsimFlags()
		if err := fs.Parse(c.args); err != nil {
			t.Fatal(err)
		}
		spec, err := sel.MeshSpec(fs.Lookup("strategy").Value.String(), fs)
		if c.bad == "" {
			if err != nil {
				t.Errorf("%v: %v", c.args, err)
			} else if want := fs.Lookup("strategy").Value.String(); spec.Strategy != want || spec.W != 4 || spec.H != 4 {
				t.Errorf("%v: spec %+v, want a 4x4 mesh under strategy %q", c.args, spec, want)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.bad) {
			t.Errorf("%v: error %v, want one naming %s", c.args, err, c.bad)
		}
	}
}
